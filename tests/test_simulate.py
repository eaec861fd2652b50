import contextlib
import functools
import math
import pickle
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arccover import (EMPTY, Arc, ConfigError, Harmonic, IntervalUnion, LogOverN,
                      PowerLaw, TableSequence, TrialConfig, arcs_to_union, checkpoint_grid,
                      complement, intersect, make_cantor, make_circle, make_custom,
                      make_finite, measure, phase_scan, run_trial, sample_centers, simulate,
                      uncovered_at, union)
from arccover.lengths import CLAMP_MAX
from arccover.simulate import SLACK
from arccover.torus import MERGE_EPS


class TestSampleCenters:
    def test_deterministic(self):
        assert np.array_equal(sample_centers(42, 1000), sample_centers(42, 1000))

    def test_prefix_stable(self):
        short = sample_centers(42, 100)
        long = sample_centers(42, 100_000)
        assert np.array_equal(short, long[:100])

    def test_distinct_seeds(self):
        a = sample_centers(7, 64)
        b = sample_centers(8, 64)
        assert a[0] != b[0]

    def test_uniform_marginals_ks(self):
        xs = np.sort(sample_centers(123, 100_000))
        n = xs.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(ecdf_hi - xs), np.max(xs - ecdf_lo))
        assert ks < 1.63 / np.sqrt(n)  # 99% critical value

    @pytest.mark.parametrize("seed", [0, 9, 2 ** 64 - 1])
    @pytest.mark.parametrize("start", [0, 1, 3, 4, 1001])
    def test_range(self, seed, start):
        # the kernel merges on the bit patterns, which order like the values
        # only for doubles in [0, 1) with the sign bit clear: never -0.0
        buf = np.full(10_000, np.nan)
        for xs in (sample_centers(seed, 10_000, start=start),
                   sample_centers(seed, 10_000, start=start, out=buf)):
            assert np.all((0.0 <= xs) & (xs < 1.0))
            assert not np.signbit(xs).any()

    def test_seed_validation(self):
        with pytest.raises(ConfigError, match="seed"):
            sample_centers(-1, 10)
        with pytest.raises(ConfigError, match="n"):
            sample_centers(1, 0)
        with pytest.raises(ConfigError, match="start"):
            sample_centers(1, 5, start=-1)
        with pytest.raises(ValueError, match="size"):
            sample_centers(1, 5, out=np.empty(4))

    @pytest.mark.parametrize("seed", [0, 9, 2 ** 64 - 1])
    def test_start_continues_the_stream(self, seed):
        whole = sample_centers(seed, 5000)
        # every phase of a Philox counter step, out of order, then a run of
        # calls that each pick up where the last one ended
        for start in [0, 1, 2, 3, 4, 5, 7, 1001, 63, 64, 65, 4095, 2]:
            for n in (1, 3, 4, 17, 300):
                assert np.array_equal(sample_centers(seed, n, start=start),
                                      whole[start:start + n])
        out = np.empty(5000)
        start = 0
        for n in (64, 6, 1, 7, 1000, 3922):
            got = sample_centers(seed, n, start=start, out=out[start:start + n])
            assert got.base is out
            start += n
        assert np.array_equal(out, whole)
        # another seed's stream at the position this one reached
        other = seed ^ 1
        assert np.array_equal(sample_centers(other, 7, start=5000),
                              sample_centers(other, 5007)[5000:])


# values an integer field refuses: a fraction, a bool, an integral float
NOT_INTEGERS = [1.5, True, 2.0, np.float64(3.0)]
NOT_INTEGER_IDS = ["fraction", "bool", "integral-float", "numpy-float"]


class TestIntegerFields:
    """An integer input refuses a bool and any float, naming its field,
    and takes a numpy integer as it takes a Python one."""

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    @pytest.mark.parametrize("field", ["seed", "n_max", "n_first_checkpoint"])
    def test_trial_config(self, field, bad):
        kwargs = dict(seed=1, lengths=LogOverN(1.0), target=make_circle(), n_max=2000)
        kwargs[field] = bad
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer, got ") as exc:
            TrialConfig(**kwargs)
        assert exc.value.field == field

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    def test_tail_window(self, bad):
        cfg = TrialConfig(seed=1, lengths=LogOverN(1.0), target=make_circle(), n_max=2000)
        for refuse in (lambda: cfg.check_window(bad, 0), lambda: run_trial(cfg, bad)):
            with pytest.raises(ConfigError, match="^tail_checkpoints: must be an integer, got "):
                refuse()

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    @pytest.mark.parametrize("field", ["seed", "n", "start"])
    def test_sample_centers(self, field, bad):
        kwargs = dict(seed=1, n=10, start=0)
        kwargs[field] = bad
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer, got "):
            sample_centers(**kwargs)

    def test_numpy_integers_are_taken(self):
        cfg = TrialConfig(seed=1, lengths=LogOverN(1.0), target=make_circle(), n_max=2000)
        np_cfg = TrialConfig(seed=np.uint64(1), lengths=LogOverN(1.0), target=make_circle(),
                             n_max=np.int64(2000), n_first_checkpoint=np.int32(64))
        assert run_trial(np_cfg, np.int64(2)) == run_trial(cfg, 2)
        assert np.array_equal(sample_centers(np.uint64(1), np.int64(10), start=np.int8(3)),
                              sample_centers(1, 10, start=3))


class TestCheckpointGrid:
    def test_geometric_and_clipped(self):
        grid = checkpoint_grid(64, 1.1, 10 ** 5)
        assert grid[0] == 64 and grid[-1] == 10 ** 5
        assert np.all(np.diff(grid) >= 1)
        ratios = grid[1:-1] / grid[:-2].astype(float)
        assert np.all(ratios <= 1.12)

    def test_small_ratio_still_advances(self):
        grid = checkpoint_grid(1, 1.0001, 20)
        assert np.array_equal(grid, np.arange(1, 21))

    @pytest.mark.parametrize("ratio", [1e300, sys.float_info.max])
    def test_huge_ratio_jumps_to_the_horizon(self, ratio):
        # cur * ratio may be inf, and is compared with n_max before rounding
        assert checkpoint_grid(64, ratio, 1000).tolist() == [64, 1000]
        cfg = TrialConfig(seed=0, lengths=LogOverN(0.5), target=make_circle(), n_max=1000,
                          checkpoint_ratio=ratio)
        assert run_trial(cfg).checkpoints.tolist() == [64, 1000]


class TestUncoveredAt:
    def test_two_centers(self):
        got = uncovered_at(np.array([0.0, 0.5]), 0.2)
        flat = [x for p in got.pieces for x in p]
        assert flat == pytest.approx([0.1, 0.4, 0.6, 0.9], abs=1e-15)

    def test_equally_spaced_covered(self):
        cs = np.arange(10) / 10.0
        assert uncovered_at(cs, 0.11).is_empty()
        assert not uncovered_at(cs, 0.09).is_empty()

    def test_single_center(self):
        got = uncovered_at(np.array([0.5]), 0.2)
        assert measure(got) == pytest.approx(0.8, abs=1e-15)

    def test_duplicate_centers_zero_gap(self):
        got = uncovered_at(np.array([0.3, 0.3]), 0.1)
        assert got.component_count() == 1  # one torus arc, split at the seam
        assert measure(got) == pytest.approx(0.9, abs=1e-15)

    def test_matches_complement_of_arcs_bitwise(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            n = int(rng.integers(1, 200))
            ell = float(rng.uniform(0.001, 0.9))
            centers = rng.random(n)
            via_gaps = uncovered_at(np.sort(centers), ell)
            via_arcs = complement(arcs_to_union([Arc(float(c), ell / 2) for c in centers]))
            assert np.array_equal(via_gaps.los, via_arcs.los)
            assert np.array_equal(via_gaps.his, via_arcs.his)

    def test_monotone_in_centers(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 100))
            ell = float(rng.uniform(0.01, 0.5))
            centers = np.sort(rng.random(n))
            before = measure(uncovered_at(centers[:-1], ell))
            after = measure(uncovered_at(centers, ell))
            assert after <= before + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            uncovered_at(np.array([]), 0.1)
        with pytest.raises(ValueError):
            uncovered_at(np.array([0.5]), 1.5)


def _nudge(x: float, ulps: int) -> float:
    """x moved by `ulps` units in the last place."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


def _assert_bitwise(u, v):
    assert np.array_equal(u.los, v.los)
    assert np.array_equal(u.his, v.his)


def _check_against_oracles(centers, ell):
    cs = np.sort(np.asarray(centers, dtype=np.float64))
    got = uncovered_at(cs, ell)
    # with an infinite SLACK every gap is a candidate, so the exact
    # predicate runs on all of them, as it did before the prefilter
    with mock.patch.object(simulate, "SLACK", math.inf):
        _assert_bitwise(got, uncovered_at(cs, ell))
    # the ends of the gaps found at a length up to ell, as the kernel passes
    # them, select the same gaps, and need only the first and last center
    for shorter in (ell, _nudge(ell, -1), 0.5 * ell):
        cand = np.flatnonzero(np.diff(cs) > shorter - SLACK)
        gaps = (cs[cand], cs[cand + 1])
        _assert_bitwise(got, uncovered_at(cs, ell, gaps))
        _assert_bitwise(got, uncovered_at(cs[[0, -1]], ell, gaps))
    # the arc route, seam ties included
    arcs = complement(arcs_to_union([Arc(float(c), 0.5 * ell) for c in cs]))
    _assert_bitwise(got, arcs)


_unit = st.floats(0.0, 1.0, exclude_max=True)
_ells = st.floats(1e-9, 0.9)
_ulps = st.integers(-4, 4)


@st.composite
def _merge_eps_clusters(draw):
    """Runs of centers one MERGE_EPS apart, or ell + MERGE_EPS apart."""
    ell = draw(_ells)
    centers = []
    for base in draw(st.lists(_unit, min_size=1, max_size=12)):
        step = _nudge(draw(st.sampled_from([MERGE_EPS, ell + MERGE_EPS])), draw(_ulps))
        centers += [base + j * step for j in range(draw(st.integers(1, 4)))]
    return [c for c in centers if c < 1.0], ell


@st.composite
def _seam_touching(draw):
    """Arcs whose ends land on the 0/1 seam, or a few ulps from it."""
    ell = draw(_ells)
    r = 0.5 * ell
    anchors = draw(st.lists(st.sampled_from([0.0, r, 1.0 - r, 1.0]), min_size=1, max_size=3))
    top = math.nextafter(1.0, 0.0)
    centers = [min(max(_nudge(a, draw(_ulps)), 0.0), top) for a in anchors]
    return centers + draw(st.lists(_unit, max_size=8)), ell


@st.composite
def _ell_near_gap(draw):
    """ell within a few ulps of one gap, or of that gap minus MERGE_EPS."""
    cs = sorted(draw(st.lists(_unit, min_size=2, max_size=20)))
    gaps = [b - a for a, b in zip(cs, cs[1:])] + [cs[0] + 1.0 - cs[-1]]
    gap = draw(st.sampled_from(gaps))
    ell = _nudge(draw(st.sampled_from([gap, gap - MERGE_EPS])), draw(_ulps))
    return cs, min(max(ell, 1e-12), 0.9)


class TestPrefilterExact:
    @given(_merge_eps_clusters())
    def test_centers_one_merge_eps_apart(self, case):
        _check_against_oracles(*case)

    @given(_seam_touching())
    def test_arcs_touching_the_seam(self, case):
        _check_against_oracles(*case)

    @given(_ell_near_gap())
    def test_ell_within_ulps_of_a_gap(self, case):
        _check_against_oracles(*case)

    @pytest.mark.parametrize("ell", [1e-6, 0.3, 0.75])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_gap_on_the_slack_boundary(self, ell, ulps):
        # a gap exactly on fl(ell - SLACK) is skipped, one ulp above is a
        # candidate; neither is uncovered
        gap = _nudge(ell - SLACK, ulps)
        cs = np.array([0.0, gap])
        assert (np.diff(cs) > ell - SLACK)[0] == (ulps > 0)
        _check_against_oracles(cs, ell)
        assert 0.5 * ell not in uncovered_at(cs, ell).los

    def test_seam_tie_agrees_with_arc_union(self):
        # a wrap gap within MERGE_EPS of ell leaves two parts of about 1e-16
        # at the seam: both routes drop them as seam dust
        ell = 0.2
        cs = np.array([0.1 + 1e-16, 0.5, 0.9 - 1e-16])
        arcs = complement(arcs_to_union([Arc(float(c), 0.5 * ell) for c in cs]))
        assert 0.0 < cs[0] - 0.5 * ell and cs[-1] + 0.5 * ell < 1.0
        _assert_bitwise(uncovered_at(cs, ell), arcs)
        assert len(arcs) == 2 and 0.0 not in arcs.los and 1.0 not in arcs.his


def max_circular_gap(centers: np.ndarray) -> float:
    """Largest spacing between circularly consecutive centers."""
    cs = np.sort(np.asarray(centers, dtype=np.float64))
    wrap = cs[0] + 1.0 - cs[-1]
    if cs.size == 1:
        return float(wrap)
    return float(max(np.max(np.diff(cs)), wrap))


class TestRunTrial:
    def test_circle_covered_iff_max_gap_below_ell(self):
        cfg = TrialConfig(seed=3, lengths=LogOverN(1.5), target=make_circle(), n_max=4000)
        trace = run_trial(cfg)
        centers = sample_centers(3, 4000)
        for i, n in enumerate(trace.checkpoints):
            direct = max_circular_gap(centers[:n]) <= trace.ells[i] + 1e-15
            assert trace.covered[i] == direct

    def test_point_target_rule(self):
        # a point is covered at n iff its distance to the nearest of the
        # first n centers is at most ell(n)/2
        x = 0.37
        cfg = TrialConfig(seed=11, lengths=Harmonic(0.8), target=make_finite([x]),
                          n_max=2000, n_first_checkpoint=4)
        trace = run_trial(cfg)
        centers = sample_centers(11, 2000)
        for i, n in enumerate(trace.checkpoints):
            d = np.abs(centers[:n] - x)
            circ = np.minimum(d, 1.0 - d).min()
            assert trace.covered[i] == (circ <= trace.ells[i] / 2 + 1e-15)

    def test_point_at_zero_rule(self):
        # the seam: 0 is uncovered iff both the first center and 1 minus the
        # last lie more than ell(n)/2 from it, so the wrap gap's middle
        # straddles 0 as the pieces (0, l) and (h, 1)
        cfg = TrialConfig(seed=0, lengths=LogOverN(0.3), target=make_finite([0.0]),
                          n_max=200, n_first_checkpoint=4)
        uncovered = 0
        for seed in range(20):
            trace = run_trial(replace(cfg, seed=seed))
            centers = sample_centers(seed, 200)
            for i, n in enumerate(trace.checkpoints):
                circ = np.minimum(centers[:n], 1.0 - centers[:n]).min()
                assert trace.covered[i] == (circ <= trace.ells[i] / 2 + 1e-15)
            uncovered += int(np.sum(~trace.covered))
        assert uncovered > 0

    def test_deterministic_trace(self):
        cfg = TrialConfig(seed=9, lengths=LogOverN(2.0), target=make_circle(), n_max=3000)
        assert run_trial(cfg) == run_trial(cfg)

    def test_traces_compare_by_value(self):
        cfg = TrialConfig(seed=1, lengths=LogOverN(0.6), target=make_cantor(1 / 3, 8),
                          n_max=3000)
        trace = run_trial(cfg, 2)
        assert trace == run_trial(cfg, 2) and not trace != run_trial(cfg, 2)
        pieces = trace.piece_count.copy()
        pieces[-1] += 1
        assert trace != replace(trace, piece_count=pieces)
        assert trace != replace(trace, ells=trace.ells * 0.5)
        assert trace != run_trial(cfg, 3)  # another tail union
        assert trace != run_trial(replace(cfg, seed=2), 2)

    def test_coverage_not_monotone_in_n(self):
        # the radius shrinks with n, so coverage can be lost after being
        # attained; scan seeds until that non-monotonicity is exhibited
        found = False
        for seed in range(60):
            cfg = TrialConfig(seed=seed, lengths=LogOverN(1.05), target=make_circle(),
                              n_max=3000, n_first_checkpoint=8)
            trace = run_trial(cfg)
            cov = trace.covered
            if np.any(cov[:-1] & ~cov[1:]):
                found = True
                break
        assert found

    def test_uncovered_measure_bounded_by_target(self):
        t = make_cantor(1 / 3, 8)
        cfg = TrialConfig(seed=5, lengths=LogOverN(1.2), target=t, n_max=2000)
        trace = run_trial(cfg)
        assert np.all(trace.uncovered_measure <= measure(t.approx) + 1e-12)

    def test_trace_fields_consistent(self):
        cfg = TrialConfig(seed=1, lengths=LogOverN(0.5), target=make_circle(), n_max=5000)
        trace = run_trial(cfg)
        assert np.all(np.diff(trace.checkpoints) > 0)
        assert trace.checkpoints[-1] == 5000
        assert trace.last_failure_n == 5000  # c < 1: horizon stays uncovered
        assert not trace.eventually_covered
        assert trace.n_tail_start in trace.checkpoints

    def test_cantor_scale_guard(self):
        t = make_cantor(0.45, 14)  # finest scale 1.4e-5
        with pytest.raises(ConfigError, match="target"):
            run_trial(TrialConfig(seed=0, lengths=LogOverN(2.0), target=t, n_max=10 ** 6))
        # coarser horizon passes the guard
        run_trial(TrialConfig(seed=0, lengths=LogOverN(2.0), target=t, n_max=2000))

    def test_config_error_pickles(self):
        # pool workers send it back to the parent
        err = pickle.loads(pickle.dumps(ConfigError("target", "too coarse")))
        assert type(err) is ConfigError
        assert (err.field, err.message, str(err)) == ("target", "too coarse",
                                                      "target: too coarse")

    def test_missing_lengths_is_a_config_error(self):
        cfg = TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=1000)
        with pytest.raises(ConfigError, match="^lengths: no length sequence configured$") as exc:
            run_trial(cfg)
        assert exc.value.field == "lengths"

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="n_max"):
            TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=10,
                        n_first_checkpoint=64)
        with pytest.raises(ConfigError, match="checkpoint_ratio"):
            TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=100,
                        checkpoint_ratio=1.0)

    @pytest.mark.parametrize("ratio", [math.inf, -math.inf, math.nan])
    def test_non_finite_checkpoint_ratio_is_a_config_error(self, ratio):
        # refused before the grid count, where inf would overflow
        with pytest.raises(ConfigError, match=f"^checkpoint_ratio: must be finite and > 1, "
                                              f"got {ratio}$"):
            TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=1000,
                        checkpoint_ratio=ratio)

    def test_checkpoint_count_is_refused_before_the_grid(self, monkeypatch):
        # about 1e9 checkpoints: refused after counting 10001 of them, with no
        # grid built
        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(simulate, "checkpoint_grid", no_grid)
        with pytest.raises(ConfigError, match="^checkpoint_ratio: .* more than 10000"):
            TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=10 ** 9,
                        checkpoint_ratio=1 + 1e-9)

    @pytest.mark.parametrize("ratio, n_max, size", [(1.001, 10 ** 6, 7926),
                                                    (1.0005, 10 ** 5, 9918)])
    def test_grids_just_below_the_cap_are_accepted(self, ratio, n_max, size):
        cfg = TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=n_max,
                          checkpoint_ratio=ratio)
        assert cfg.checkpoints().size == size

    @pytest.mark.parametrize("ratio", [1.0001, 1.001, 1.01, 1.1, 1.5, 3.0, 1e6])
    @pytest.mark.parametrize("n_first", [1, 2, 64, 1000])
    def test_grid_size_counts_the_grid(self, ratio, n_first):
        for n_max in (n_first, 1234, 10 ** 5):
            if n_max >= n_first:
                size = checkpoint_grid(n_first, ratio, n_max).size
                want = min(size, simulate.MAX_CHECKPOINTS + 1)
                assert simulate._grid_size(n_first, ratio, n_max) == want
        # one step past the cap is as far as the count goes
        assert simulate._grid_size(n_first, 1 + 1e-9, 10 ** 9) == simulate.MAX_CHECKPOINTS + 1


class TestMergeUpkeep:
    # the reference intersects in the target-first order, the kernel gaps-first
    @pytest.mark.parametrize("target", [make_circle(), make_finite([0.05, 0.37, 0.9]),
                                        make_cantor(1 / 3, 6)],
                             ids=["circle", "finite", "cantor"])
    def test_single_center_steps_match_fresh_sort(self, target):
        cfg = TrialConfig(seed=13, lengths=LogOverN(1.5), target=target, n_max=400,
                          n_first_checkpoint=1, checkpoint_ratio=1.0001)
        grid = cfg.checkpoints()
        assert np.array_equal(grid, np.arange(1, 401))  # one new center per step
        ells = cfg.lengths.ell(grid.astype(np.float64))
        trace = run_trial(cfg)
        assert np.array_equal(trace.ells, ells)
        for i, n in enumerate(grid):
            gaps = uncovered_at(np.sort(sample_centers(cfg.seed, int(n))), float(ells[i]))
            resid = gaps if target.kind == "circle" else intersect(target.approx, gaps)
            assert trace.covered[i] == resid.is_empty()
            assert trace.uncovered_measure[i] == measure(resid)
            assert trace.piece_count[i] == resid.component_count()


_KERNEL_TARGETS = [
    make_circle(), make_cantor(1 / 3, 12), make_finite([0.0, 0.37, 0.5, 0.9]),
    make_custom(IntervalUnion([(0.0, 0.1), (0.45, 0.55), (0.9, 1.0)]), 1.0)]
_KERNEL_IDS = ["circle", "cantor", "points", "custom"]


def _traces(base, rules, tail):
    """run_trial's trace of `base` under each rule of `rules`."""
    return [run_trial(replace(base, lengths=rule), tail) for rule in rules]


def _as_verdicts(traces):
    """What _verdicts gives for the rules of `traces`, read off them."""
    return [(t.eventually_covered, t.last_failure_n, t.tail_uncovered) for t in traces]


def _fresh_residue(cs, ell, target):
    """The part of `target` that arcs of length `ell` at the sorted centers
    `cs` leave uncovered, by the public route over every gap."""
    gaps = uncovered_at(cs, ell)
    return gaps if target.kind == "circle" else intersect(gaps, target.approx)


def _fresh_verdicts(cfg, rules):
    """Per rule, (eventually_covered, last_failure_n) of cfg under it, from
    the residue of a fresh sort of each checkpoint's prefix."""
    grid = cfg.checkpoints()
    tail_idx = int(np.argmin(np.abs(grid - math.sqrt(cfg.n_max))))
    ells = [rule.ell(grid.astype(np.float64)) for rule in rules]
    last = [-1] * len(rules)
    for i, n in enumerate(grid):
        cs = np.sort(sample_centers(cfg.seed, int(n)))
        for j in range(len(rules)):
            if not _fresh_residue(cs, float(ells[j][i]), cfg.target).is_empty():
                last[j] = i
    return [(k < tail_idx, int(grid[k]) if k >= 0 else None) for k in last]


class TestSweep:
    @pytest.mark.parametrize("target", [make_circle(), make_cantor(1 / 3, 8),
                                        make_finite([0.05, 0.37, 0.9])],
                             ids=["circle", "cantor", "finite"])
    def test_matches_one_rule_at_a_time(self, target):
        base = TrialConfig(seed=5, lengths=None, target=target, n_max=3000)
        rules = [LogOverN(c) for c in (0.3, 0.6, 1.0, 2.5)]
        if target.kind == "cantor":
            # at n_max = 3000 the depth-8 guard refuses c = 0.3 only; a
            # pass trusts its caller to drop that rule, as phase_scan does
            with pytest.raises(ConfigError, match="^target: pre-fractal"):
                run_trial(replace(base, lengths=rules[0]), 3)
            rules = rules[1:]
        # the verdicts of one pass are each trace's, as plain tuples
        assert simulate._verdicts(base, rules, 3) == _as_verdicts(_traces(base, rules, 3))

    @pytest.mark.parametrize("target", _KERNEL_TARGETS, ids=_KERNEL_IDS)
    def test_skipped_residues_are_empty(self, monkeypatch, target):
        # a trial builds no residue where the decision says covered: built
        # from the same gaps, each would be EMPTY
        seen = []
        decide = simulate._uncovered

        def spy(a, b, first, last, ells, t, lookup):
            out = decide(a, b, first, last, ells, t, lookup)
            seen.append((a, b, first, last, ells, t, out))
            return out

        monkeypatch.setattr(simulate, "_uncovered", spy)
        base = TrialConfig(seed=5, lengths=None, target=target, n_max=3000,
                           n_first_checkpoint=4)
        traces = _traces(base, [LogOverN(c) for c in (0.6, 1.0, 1.5, 2.5)], 3)
        skipped = 0
        # a trial decides one length per checkpoint
        for a, b, first, last, (ell,), t, out in seen:
            if out:
                continue
            gaps = uncovered_at((first, last), ell, (a, b))
            resid = gaps if t is None else intersect(gaps, t)
            assert resid == EMPTY
            assert measure(resid) == 0.0 and resid.component_count() == 0
            skipped += 1
        assert skipped == sum(int(np.sum(tr.covered)) for tr in traces) > 0
        for tr in traces:
            assert not np.any(tr.uncovered_measure[tr.covered])
            assert not np.any(tr.piece_count[tr.covered])


_SMALL_BLOCK = 7


@pytest.fixture(scope="class")
def small_block():
    """The prefilter in blocks of 7 gaps, so short prefixes cross blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BLOCK", _SMALL_BLOCK)
        yield


class TestBlockedPrefilter:
    B = _SMALL_BLOCK

    @pytest.mark.parametrize("size", [1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1])
    def test_matches_one_shot_diff(self, monkeypatch, size):
        monkeypatch.setattr(simulate, "_BLOCK", self.B)
        cs = np.sort(sample_centers(size, size))
        spacings = np.diff(cs)
        # thresholds on every spacing and one ulp either side of it
        thresholds = [-math.inf, math.inf] + [_nudge(float(g), u) for g in spacings
                                              for u in (-1, 0, 1)]
        for thr in thresholds:
            a, b = simulate._gap_candidates(cs, thr)
            # one part per block, at least one, none a view of cs
            assert len(a) == len(b) == max(1, -(-(size - 1) // self.B))
            assert not any(np.shares_memory(part, cs) for part in a + b)
            idx = np.flatnonzero(spacings > thr)
            assert simulate._join(a).tobytes() == cs[idx].tobytes()
            assert simulate._join(b).tobytes() == cs[idx + 1].tobytes()

    def test_holds_nothing_that_grows_with_the_prefix(self):
        # a threshold above every spacing selects no gap, so the peak is the
        # call's own buffers: 9 B per gap of a block, at 8x the centers too
        peaks = []
        for size in (1 << 18, 1 << 21):
            cs = np.sort(sample_centers(size, size))
            tracemalloc.start()
            try:
                a, b = simulate._gap_candidates(cs, 1.0)
                assert simulate._join(a).size == simulate._join(b).size == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 10 * simulate._BLOCK
        assert max(peaks) <= 1.1 * min(peaks)

    @pytest.mark.parametrize("target", [make_circle(), make_cantor(1 / 3, 8),
                                        make_finite([0.05, 0.37, 0.9])],
                             ids=["circle", "cantor", "finite"])
    def test_block_size_leaves_traces_unchanged(self, monkeypatch, target):
        base = TrialConfig(seed=5, lengths=None, target=target, n_max=3000)
        rules = [LogOverN(c) for c in (0.6, 1.0, 2.5)]
        want = _traces(base, rules, 3), simulate._verdicts(base, rules, 3)
        monkeypatch.setattr(simulate, "_BLOCK", self.B)
        assert (_traces(base, rules, 3), simulate._verdicts(base, rules, 3)) == want


@pytest.mark.usefixtures("small_block")
class TestPrefilterExactSmallBlock:
    # TestPrefilterExact's properties, with up to 48 centers per case, so
    # the candidates span several blocks; a class cannot inherit Hypothesis
    # tests, so they are drawn here again
    @settings(max_examples=300)
    @given(st.one_of(_merge_eps_clusters(), _seam_touching(), _ell_near_gap()))
    def test_properties_across_blocks(self, case):
        _check_against_oracles(*case)


@pytest.mark.usefixtures("small_block")
class TestSweepSmallBlock(TestSweep):
    pass


def _gap_ends(cs, ells):
    """Every end a +- ell/2 of an arc, taken mod 1 with the float operations
    of uncovered_at: the positions where a gap piece starts or stops."""
    ends = set()
    for ell in ells:
        r = 0.5 * ell
        for c in cs:
            for x in (c + r, c - r):
                ends.add(x - 1.0 if x >= 1.0 else x + 1.0 if x < 0.0 else x)
    return sorted(x for x in ends if 0.0 <= x < 1.0)


@st.composite
def _decision_case(draw):
    """Sorted centers, 1 to 12 lengths in order, ties and CLAMP_MAX among
    them, and a target, with target points and piece ends on gap ends, at 0
    and at 1, and wrap gaps across the seam."""
    near_seam = st.sampled_from([0.0, 1e-3, 0.05, 0.95, 0.999, math.nextafter(1.0, 0.0)])
    centers = draw(st.lists(st.one_of(_unit, near_seam), min_size=1, max_size=30))
    cs = np.sort(np.array(centers))
    spacings = np.append(np.diff(cs), cs[0] + 1.0 - cs[-1])
    # lengths on a spacing or MERGE_EPS below it make ties
    tied = [min(max(_nudge(float(g) - d, draw(_ulps)), 1e-12), 0.9)
            for g in draw(st.lists(st.sampled_from(spacings.tolist()), max_size=2))
            for d in (0.0, MERGE_EPS)]
    # the longest length a rule gives is CLAMP_MAX
    ells = draw(st.lists(st.one_of(_ells, st.just(CLAMP_MAX)), min_size=1, max_size=6)) + tied
    ells = sorted(ells + draw(st.lists(st.sampled_from(ells), max_size=2)))
    ends = _gap_ends(cs.tolist(), ells)
    kind = draw(st.sampled_from(["circle", "cantor", "finite", "custom"]))
    if kind == "circle":
        target = make_circle()
    elif kind == "cantor":
        target = make_cantor(draw(st.sampled_from([1 / 3, 0.25])), draw(st.integers(1, 8)))
    elif kind == "finite":
        picked = draw(st.lists(st.sampled_from(ends), max_size=6))
        target = make_finite(sorted({0.0, *picked, *draw(st.lists(_unit, max_size=3))}))
    else:
        inner = sorted(set(draw(st.lists(st.one_of(st.sampled_from(ends), _unit),
                                         min_size=2, max_size=8))) - {0.0}) or [0.5]
        pieces = [(0.0, inner[0]), (inner[-1], 1.0)] + list(zip(inner[1:-1:2], inner[2:-1:2]))
        target = make_custom(IntervalUnion([p for p in pieces if p[1] > p[0]]), 1.0)
    return cs, np.array(ells), target


def _check_decision(cs, ells, target):
    # the kernel's candidates: those of the shortest length, shared by all
    a, b = map(simulate._join, simulate._gap_candidates(cs, ells[0] - SLACK))
    circle = target.kind == "circle"
    t = None if circle else target.approx
    lookup = None if circle else target._lookup
    # a hint, right or wrong, changes no count
    got, *hinted = (simulate._uncovered(a, b, cs[0], cs[-1], ells, t, lookup, hint)
                    for hint in range(ells.size + 1))
    assert hinted == [got] * ells.size
    # the count of the leading lengths that leave the target uncovered
    for j, ell in enumerate(ells):
        gaps = uncovered_at(cs, float(ell), (a, b))
        resid = gaps if circle else intersect(gaps, target.approx)
        assert (j < got) == (not resid.is_empty())


class TestBatchedDecision:
    """_verdicts decides coverage for every length from the depth of the
    target in the gaps, in order, without building residues; the count it
    gives must be that of the residues that are not empty."""

    @settings(max_examples=300)
    @given(_decision_case())
    def test_equals_residue_emptiness(self, case):
        _check_decision(*case)

    @settings(max_examples=300)
    @given(_decision_case())
    def test_residue_emptiness_is_monotone_in_ell(self, case):
        # the search is exact because a length covers wherever a shorter one does
        cs, ells, target = case
        empty = []
        for ell in np.sort(ells):
            gaps = uncovered_at(cs, float(ell))
            empty.append((gaps if target.kind == "circle"
                          else intersect(gaps, target.approx)).is_empty())
        assert empty == sorted(empty)

    @settings(max_examples=300)
    @given(_decision_case(), st.lists(st.floats(-4.0, 4.0), max_size=4))
    def test_depth_decides_away_from_ties(self, case, offsets):
        # a length below D - band leaves the target uncovered and one above
        # D + band covers it, D the depth of the target in every gap; the
        # lengths tried are the case's, some bands from D and the floats
        # just outside the band
        cs, ells, target = case
        t = None if target.kind == "circle" else target.approx
        a, b, first, last = cs[:-1], cs[1:], cs[0], cs[-1]
        d = simulate._depth(a, b, first, last, None if t is None else target._lookup)
        band = simulate._band(d)
        edges = [math.nextafter(d - band, -math.inf), math.nextafter(d + band, math.inf)]
        for ell in [*ells.tolist(), *edges, *(d + k * band for k in offsets)]:
            if not 0.0 < ell < 1.0:
                continue
            if ell < d - band:
                assert not simulate._residue(a, b, first, last, ell, t).is_empty()
            elif ell > d + band:
                assert simulate._residue(a, b, first, last, ell, t).is_empty()

    @pytest.mark.parametrize("cs, ells", [
        # wrap gap 0.15: a piece across the seam, (0.96, 0.99), then one
        # piece at each end, (0, 0.04) and (0.91, 1), then closed
        ([0.05, 0.5, 0.9], [0.02, 0.12, 0.3]),
        # wrap gap 0.12: a piece shifted past 1, (0.01, 0.07), then one piece
        # at each end, (0, 0.09) and (0.99, 1), then closed
        ([0.1, 0.5, 0.98], [0.02, 0.06, 0.3]),
        # one search over lengths in order, tied, clamped or alone
        ([0.05, 0.5, 0.9], [0.02, 0.02, 0.12, 0.3, 0.3, CLAMP_MAX]),
        ([0.1, 0.5, 0.98], [0.02]),
    ], ids=["across", "shifted", "tied", "single"])
    def test_each_kind_of_seam_piece(self, cs, ells):
        # 0 lies inside the pieces at both ends, one arc across the seam
        for target in (make_circle(), make_finite([0.0, 0.5]), make_cantor(1 / 3, 3),
                       make_custom(IntervalUnion([(0.0, 0.01), (0.98, 1.0)]), 1.0)):
            _check_decision(np.array(cs), np.array(ells), target)


def _two_ended(low, fresh, high, spare):
    """A prefix array as the kernel holds it: the low run, the fresh draws
    right after it, `spare` free slots, then the high run at the end."""
    c = np.full(len(low) + len(fresh) + spare + len(high), np.nan)
    c[:len(low)] = low
    c[len(low):len(low) + len(fresh)] = fresh
    c[c.size - len(high):] = high
    return c


_BELOW_HALF = math.nextafter(0.5, 0.0)

# split points: 1/2, the kernel's, the float just below it, and 1, where no
# thread may run
_SPLITS = [0.5, simulate._SPLIT, math.nextafter(simulate._SPLIT, 0.0), 1.0]
_SPLIT_IDS = ["half", "split", "below-split", "one"]

# prefix cases written for a split at 1/2: (low run, fresh draws, high run)
_SPLIT_CASES = {
    "mixed": ([0.1, 0.3], [0.5, _BELOW_HALF, 0.7, 0.2, 0.95, 0.6], [0.55, 0.9]),
    "all-low": ([0.2], [0.4, 0.0, 0.1], [0.8]),
    "all-high": ([0.2], [0.5, 0.99, 0.75], [0.6]),
    "first": ([], [0.6, 0.1, 0.7], []),             # the first checkpoint
    "no-high": ([], [_BELOW_HALF, 0.25], []),       # the high half stays empty
    "low-only": ([0.1, 0.3], [0.45, 0.0, _BELOW_HALF, 0.2], []),
    "no-low": ([], [0.8, 0.7], [0.55]),             # the low half stays empty
    "one-high": ([], [0.5], []),                    # a high half of size 1
    "one-low": ([0.3], [0.9, 0.8], []),             # a low half of size 1
}


def _moved(x: float, at: float) -> float:
    """The point x of a case written for a split at 1/2, moved to a split at
    `at`: 1/2 goes to `at`, the float just below 1/2 to the float just below
    `at`, and the other points scale linearly on either side."""
    if x == 0.5:
        return at
    if x == _BELOW_HALF:
        return math.nextafter(at, 0.0)
    return 2 * x * at if x < 0.5 else at + (2 * x - 1) * (1 - at)


# every case at every split, but at 1 only those with no center at or above
# it: a center is below 1
_SPLIT_PARAMS = [
    pytest.param([_moved(x, at) for x in low], [_moved(x, at) for x in fresh],
                 [_moved(x, at) for x in high], at, id=f"{name}-{at_id}")
    for at, at_id in zip(_SPLITS, _SPLIT_IDS)
    for name, (low, fresh, high) in _SPLIT_CASES.items()
    if at < 1.0 or max(low + fresh + high) < 0.5]


def _joined(gaps):
    """_prefix_gaps's (a, b, first, last) with the parts of a and b joined."""
    a, b, first, last = gaps
    return simulate._join(a), simulate._join(b), first, last


class TestSplitPrefix:
    """The two-ended prefix: centers below the split point `at` sorted from
    the left end of the array, those at or above it sorted up to its right
    end."""

    @pytest.mark.parametrize("spare", [0, 1, 5])
    @pytest.mark.parametrize("low, fresh, high, at", _SPLIT_PARAMS)
    def test_split_then_merge(self, low, fresh, high, at, spare):
        c = _two_ended(low, fresh, high, spare)
        # the draw sorts the fresh centers where they are
        simulate._draw(c[len(low):len(low) + len(fresh)], 0, 0, False)
        n0, n1 = simulate._split(c, len(low), len(high), len(fresh), at)
        want = np.sort(np.array(low + fresh + high))
        # `at` itself goes high, the float just below it low
        assert (n0, n1) == (int(np.sum(want < at)), int(np.sum(want >= at)))
        # each half is its two sorted runs, the fresh part next to the free slots
        fresh_low = sorted(x for x in fresh if x < at)
        fresh_high = sorted(x for x in fresh if x >= at)
        assert c[:n0].tolist() == low + fresh_low
        assert c[c.size - n1:].tolist() == fresh_high + high
        spacings = np.diff(want)
        # thresholds on every spacing, the one across `at` included, and one
        # ulp either side of it
        for thr in [-math.inf] + [_nudge(float(g), u) for g in spacings for u in (-1, 0, 1)]:
            a, b, first, last = _joined(simulate._prefix_gaps(c, n0, n1, thr, None))
            idx = np.flatnonzero(spacings > thr)
            assert np.array_equal(a, want[idx]) and np.array_equal(b, want[idx + 1])
            assert (first, last) == (want[0], want[-1])
        # merged in place: the halves hold the sorted prefix
        assert np.array_equal(np.concatenate([c[:n0], c[c.size - n1:]]), want)

    @pytest.mark.parametrize("spare", [0, 3])
    def test_split_at_one_keeps_every_center_low(self, spare):
        # where no thread may run, the kernel splits at 1: the high run stays
        # empty and the low run is the whole sorted prefix
        c = _two_ended([0.1, 0.6], [0.99, 0.5, 0.0, _BELOW_HALF], [], spare)
        before = c.copy()
        simulate._draw(c[2:6], 0, 0, False)
        assert simulate._split(c, 2, 0, 4, 1.0) == (6, 0)
        assert c[:6].tolist() == [0.1, 0.6, 0.0, _BELOW_HALF, 0.5, 0.99]
        assert np.array_equal(c[6:], before[6:], equal_nan=True)

    @pytest.mark.parametrize("threads", [False, True], ids=["serial", "threaded"])
    @pytest.mark.parametrize("at", _SPLITS, ids=_SPLIT_IDS)
    def test_draw_into_free_middle_leaves_halves(self, at, threads):
        # 3000 centers, split; 400 more, split, so each half is two runs;
        # and room for the 400 after them
        seed = 3
        c = np.full(3800, np.nan)
        simulate._draw(c[:3000], seed, 0, True)
        n0, n1 = simulate._split(c, 0, 0, 3000, at)
        simulate._draw(c[n0:n0 + 400], seed, 3000, True)
        n0, n1 = simulate._split(c, n0, n1, 400, at)
        assert c.size - n1 - n0 == 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # every gap a candidate, the gap between the halves included, and
            # the few wide ones
            for thr in (-math.inf, 1e-3):
                # the merge and its result without a draw
                ref = c.copy()
                want = _joined(simulate._prefix_gaps(ref, n0, n1, thr, None))
                draw = functools.partial(simulate._draw, c[n0:n0 + 400], seed, 3400, True)
                with ThreadPoolExecutor(1) if threads else contextlib.nullcontext() as pool:
                    got = _joined(simulate._prefix_gaps(c, n0, n1, thr, pool, draw))
                # the halves, merged, are bit for bit those of the merge alone
                assert c[:n0].tobytes() == ref[:n0].tobytes()
                assert c[c.size - n1:].tobytes() == ref[c.size - n1:].tobytes()
                for g, w in zip(got, want):
                    assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
                # and the free middle holds the next 400 centers, sorted
                assert np.array_equal(c[n0:n0 + 400],
                                      np.sort(sample_centers(seed, 400, start=3400)))
        finally:
            sys.setswitchinterval(interval)


_TINY = 2.0 ** -1022
_TOP = 1.0 - 2.0 ** -53

# two sorted runs of one half: +0.0, the least subnormal and normal doubles,
# both sides of the split point and the largest center, several values in
# both runs; and two long drawn runs with some centers in both, where
# timsort gallops
_HALF_RUNS = {
    "edges": ([0.0, _TINY, 0.25, 0.25, simulate._SPLIT, _TOP],
              [5e-324, 0.25, math.nextafter(simulate._SPLIT, 0.0), simulate._SPLIT, _TOP, _TOP]),
    "edges-swapped": ([5e-324, 0.25, math.nextafter(simulate._SPLIT, 0.0), simulate._SPLIT],
                      [0.0, 0.0, _TINY, 0.25, simulate._SPLIT, _TOP]),
    "drawn": (np.sort(sample_centers(4, 5000)).tolist(),
              np.sort(np.concatenate([sample_centers(4, 500, start=5000),
                                      np.sort(sample_centers(4, 5000))[::97]])).tolist()),
}


class TestHalfGaps:
    """_half_gaps merges on the centers' 64-bit patterns: the same bytes as
    a float64 stable sort, for every kind of double a center can be."""

    @pytest.mark.parametrize("merge", [True, False], ids=["merge", "one-run"])
    @pytest.mark.parametrize("case", list(_HALF_RUNS))
    def test_merge_is_a_float_sort_bit_for_bit(self, case, merge):
        first, second = _HALF_RUNS[case]
        half = np.array(first + second)
        want = half.copy()
        want.sort(kind="stable")
        if not merge:
            # one sorted run already, which _half_gaps leaves as it is
            half = want.copy()
        # every gap is a candidate, the zero ones included
        a, b = map(simulate._join, simulate._half_gaps(half, -math.inf, merge))
        assert half.tobytes() == want.tobytes()
        assert a.tobytes() == want[:-1].tobytes()
        assert b.tobytes() == want[1:].tobytes()


def _spy_threads(monkeypatch):
    """The set of threads that merge a half, filled as the kernel runs."""
    seen = set()
    merge = simulate._half_gaps

    def spy(*args):
        seen.add(threading.get_ident())
        return merge(*args)

    monkeypatch.setattr(simulate, "_half_gaps", spy)
    return seen


@pytest.fixture
def small_thread_min(monkeypatch):
    """Halves go to two threads from a prefix of 14 centers on, so a short
    trial runs both ways."""
    monkeypatch.setattr(simulate, "_THREAD_MIN", 2 * _SMALL_BLOCK)


@pytest.mark.usefixtures("small_block", "small_thread_min")
class TestThreadedHalves:
    """The prefilter in blocks of 7 gaps and the halves on two threads from
    a prefix of 14 centers on, so a short trial runs every way."""

    # the split points below 1, the kernel's included
    @pytest.mark.parametrize("at", _SPLITS[:3], ids=_SPLIT_IDS[:3])
    @pytest.mark.parametrize("target", _KERNEL_TARGETS, ids=_KERNEL_IDS)
    def test_threaded_equals_serial(self, monkeypatch, target, at):
        monkeypatch.setattr(simulate, "_SPLIT", at)
        base = TrialConfig(seed=5, lengths=None, target=target, n_max=3000,
                           n_first_checkpoint=2)
        rules = [LogOverN(c) for c in (0.6, 1.0, 2.5)]
        seen = _spy_threads(monkeypatch)
        got = {}
        # switch threads as often as possible, so the halves interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (False, True):
                monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
                seen.clear()
                # traces build a residue at every uncovered checkpoint,
                # verdicts in the window only, and a window's config starts
                # there
                got[threads] = (_traces(base, rules, 3), simulate._verdicts(base, rules, 3),
                                [_tail(replace(base, lengths=rule), 3) for rule in rules])
                assert (seen != {threading.get_ident()}) == threads
        finally:
            sys.setswitchinterval(interval)
        assert got[True] == got[False]

    @pytest.mark.parametrize("threads", [False, True], ids=["serial", "threaded"])
    def test_kernel_calls_the_public_sampler_and_residue(self, monkeypatch, threads):
        # what wraps the module's public functions (a profiler, a tracer)
        # sees every center sampled and every residue built, and a residue
        # is built for each uncovered (rule, checkpoint) pair alone
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        sampled, residues = [], []
        sample, residue = simulate.sample_centers, simulate.uncovered_at

        def sample_spy(*args, **kwargs):
            centers = sample(*args, **kwargs)
            sampled.append(centers.size)
            return centers

        def residue_spy(*args):
            residues.append(args[1])
            return residue(*args)

        monkeypatch.setattr(simulate, "sample_centers", sample_spy)
        monkeypatch.setattr(simulate, "uncovered_at", residue_spy)
        base = TrialConfig(seed=2, lengths=None, target=make_cantor(1 / 3, 8), n_max=2000)
        rules = [LogOverN(c) for c in (0.6, 1.0, 2.5)]
        n_cp = base.checkpoints().size
        traces = _traces(base, rules, 2)

        def uncovered(checkpoints):
            return [float(t.ells[i]) for i in checkpoints for t in traces if not t.covered[i]]

        # each trace samples every center once, and builds its residues in
        # checkpoint order
        assert sum(sampled) == 3 * base.n_max
        assert residues == [float(t.ells[i]) for t in traces
                            for i in range(n_cp) if not t.covered[i]]
        # some pairs are covered and some not, in the window too
        assert 0 < len(residues) < 3 * n_cp
        assert 0 < len(uncovered(range(n_cp - 2, n_cp))) < 3 * 2
        sampled.clear()
        residues.clear()
        simulate._verdicts(base, rules, 2)
        assert sum(sampled) == base.n_max
        assert residues == uncovered(range(n_cp - 2, n_cp))
        sampled.clear()
        residues.clear()
        # a window's config samples every center once too, and builds a
        # residue for each uncovered checkpoint of its window alone
        for rule in rules:
            _tail(replace(base, lengths=rule), 2)
        assert sum(sampled) == 3 * base.n_max
        assert residues == [float(t.ells[i]) for t in traces
                            for i in range(n_cp - 2, n_cp) if not t.covered[i]]

    @pytest.mark.parametrize("threads", [False, True], ids=["serial", "threaded"])
    @pytest.mark.parametrize("n_first", [1, 2, 3])
    @pytest.mark.parametrize("target", _KERNEL_TARGETS, ids=_KERNEL_IDS)
    def test_each_checkpoint_matches_fresh_sort(self, monkeypatch, target, n_first, threads):
        # the covered flags against a residue of a fresh sort, which shares
        # no code with the depth search that decides them, and the residues
        # themselves, late phase included, through a tail window of every
        # checkpoint
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        one_sided = False
        for seed in range(8):
            cfg = TrialConfig(seed=seed, lengths=LogOverN(1.2), target=target, n_max=300,
                              n_first_checkpoint=n_first)
            trace = run_trial(cfg, cfg.checkpoints().size)
            want = EMPTY
            for i, n in enumerate(trace.checkpoints):
                cs = np.sort(sample_centers(seed, int(n)))
                one_sided |= n > 1 and (cs[-1] < simulate._SPLIT or cs[0] >= simulate._SPLIT)
                resid = _fresh_residue(cs, float(trace.ells[i]), target)
                assert trace.covered[i] == resid.is_empty()
                assert trace.uncovered_measure[i] == measure(resid)
                assert trace.piece_count[i] == resid.component_count()
                want = union(want, resid)
            assert trace.tail_uncovered == want
        # some checkpoint past the first had every center on one side of the split
        assert one_sided


def _window(cfg, start):
    """cfg from its checkpoint `start` on (negative counts from the end):
    the config whose grid is cfg's grid[start:]."""
    return replace(cfg, n_first_checkpoint=int(cfg.checkpoints()[start]))


def _tail(cfg, w):
    """The union of the residues of cfg's last w checkpoints as a dims cell
    reads it: from _verdicts over the config of that window."""
    (_, _, tail_union), = simulate._verdicts(_window(cfg, -w), [cfg.lengths], w)
    return tail_union


def _pass(cfg, shortest, start):
    """Everything _prefixes yields for cfg's window from its checkpoint
    `start` on, as bytes."""
    return [tuple(np.asarray(x).tobytes() for x in step)
            for step in simulate._prefixes(_window(cfg, start), shortest[start:])]


def _fresh_pass(cfg, shortest, start):
    """What _prefixes should yield for cfg's window from its checkpoint
    `start` on, as bytes: per checkpoint of cfg's grid from there, its
    index in the window and the gaps of a fresh sort of its prefix,
    filtered by a diff."""
    steps = []
    for i, n in enumerate(cfg.checkpoints()[start:], start):
        cs = np.sort(sample_centers(cfg.seed, int(n)))
        idx = np.flatnonzero(np.diff(cs) > shortest[i] - SLACK)
        steps.append((np.intp(i - start).tobytes(), cs[idx].tobytes(), cs[idx + 1].tobytes(),
                      cs[:1].tobytes(), cs[-1:].tobytes()))
    return steps


def _switch(cfg, shortest, start):
    """The checkpoint, an index of cfg's grid, where a pass of cfg's window
    from its checkpoint `start` on stops keeping its sorted prefix, the
    grid size for none: the first from `start` on where n times the least
    threshold from there on reaches _X0."""
    grid = cfg.checkpoints()
    if cfg.n_max < simulate._THREAD_MIN:
        return grid.size
    thr = shortest - SLACK
    return next((i for i in range(start, grid.size)
                 if grid[i] * thr[i:].min() >= simulate._X0), grid.size)


def _spy_lands(monkeypatch):
    """The list of batch sizes that _land splits the open gaps by, filled
    as the kernel runs."""
    sizes = []
    land = simulate._land

    def spy(a, b, first, last, fresh, lim):
        sizes.append(fresh.size)
        return land(a, b, first, last, fresh, lim)

    monkeypatch.setattr(simulate, "_land", spy)
    return sizes


def _shortest(cfg):
    grid = cfg.checkpoints()
    return cfg.lengths.ell(grid.astype(np.float64))


# a table with long runs of equal lengths, so the floor of a late checkpoint
# often equals its own threshold
_STEP_TABLE = TableSequence(tuple(float(x) for x in
                                  np.floor(900 * np.arange(1, 3001) ** -0.5) / 1000))


@pytest.mark.usefixtures("small_thread_min")
class TestPrefixes:
    """The one pass that keeps the sorted prefix, read at the generator:
    threaded, one-run and a fresh sort of each prefix agree bit for bit,
    also past the checkpoint where the pass switches to its open gaps."""

    CFG = TrialConfig(seed=5, lengths=LogOverN(1.0), target=make_circle(), n_max=3000,
                      n_first_checkpoint=2)

    @pytest.mark.parametrize("block", [_SMALL_BLOCK, simulate._BLOCK], ids=["block7", "default"])
    @pytest.mark.parametrize("at", _SPLITS, ids=_SPLIT_IDS)
    def test_threaded_equals_one_run(self, monkeypatch, at, block):
        monkeypatch.setattr(simulate, "_SPLIT", at)
        monkeypatch.setattr(simulate, "_BLOCK", block)
        grid = self.CFG.checkpoints()
        shortest = _shortest(self.CFG)
        seen = _spy_threads(monkeypatch)
        for start in (0, grid.size // 2, grid.size - 1):
            got = {}
            for threads in (False, True):
                monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
                seen.clear()
                got[threads] = _pass(self.CFG, shortest, start)
                # below a split of 1 the halves of a prefix of 14 or more
                # centers merge on the second thread
                assert (seen != {threading.get_ident()}) == (threads and at < 1.0)
            assert got[True] == got[False] == _fresh_pass(self.CFG, shortest, start)

    # where the pass switches: at its first checkpoint (start = s), after
    # some sorted ones, at its last, and never (n * ell(n) falls); a rule
    # that rises at its start, from n = 2 to 3, switching at n = 2; and a
    # table of equal runs
    @pytest.mark.parametrize("threads", [False, True], ids=["one-run", "threaded"])
    @pytest.mark.parametrize("lengths, where", [
        (LogOverN(1.0), "first"), (LogOverN(1.0), "middle"), (LogOverN(1.0), "last"),
        (PowerLaw(1.0, 2.0), "never"), (LogOverN(1.0), "rising"), (_STEP_TABLE, "middle"),
        (LogOverN(2.5), "middle")],
        ids=["first", "middle", "last", "never", "rising", "table", "logn-2.5"])
    def test_switching_pass_equals_fresh_sort(self, monkeypatch, lengths, where, threads):
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        lands = _spy_lands(monkeypatch)
        for seed in (0, 5):
            cfg = replace(self.CFG, seed=seed, lengths=lengths)
            grid = cfg.checkpoints()
            shortest = _shortest(cfg)
            floor = np.minimum.accumulate((shortest - SLACK)[::-1])[::-1]
            start = 0
            if where == "last":
                monkeypatch.setattr(simulate, "_X0", float(grid[-1] * floor[-1]))
            elif where == "rising":
                monkeypatch.setattr(simulate, "_X0", float(grid[0] * floor[0]))
                assert shortest[1] > shortest[0]
            elif where == "first":
                start = _switch(cfg, shortest, 0)
            s = _switch(cfg, shortest, start)
            if where == "middle":
                assert 0 < s < grid.size - 1
            else:
                assert s == {"first": start, "last": grid.size - 1, "never": grid.size,
                             "rising": 0}[where]
            lands.clear()
            assert _pass(cfg, shortest, start) == _fresh_pass(cfg, shortest, start)
            # each checkpoint past s lands its batch, and only those
            assert lands == np.diff(grid[s:]).tolist()

    @pytest.mark.parametrize("threads", [False, True], ids=["one-run", "threaded"])
    def test_only_a_later_checkpoint_merges(self, monkeypatch, threads):
        # a pass's first checkpoint draws each half as one sorted run, so
        # it skips the merge; every later one up to the switch merges two
        # runs, and none past it merges at all
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        calls = []
        half_gaps = simulate._half_gaps

        def spy(half, thr, merge=True):
            calls.append(merge)
            return half_gaps(half, thr, merge)

        monkeypatch.setattr(simulate, "_half_gaps", spy)
        grid = self.CFG.checkpoints()
        shortest = _shortest(self.CFG)
        for start in (0, grid.size // 2, grid.size - 1):
            s = min(_switch(self.CFG, shortest, start), grid.size - 1)
            flags = []
            for _ in simulate._prefixes(_window(self.CFG, start), shortest[start:]):
                flags.append(set(calls))
                calls.clear()
            assert flags == [{False}] + [{True}] * (s - start) + [set()] * (grid.size - 1 - s)
        # the switch falls inside the pass from 0
        assert 0 < _switch(self.CFG, shortest, 0) < grid.size - 1

    @pytest.mark.parametrize("threads", [False, True], ids=["one-run", "threaded"])
    def test_late_batches_are_drawn_beside_the_landing(self, monkeypatch, threads):
        # past the switch each batch is sampled once, in stream order, on
        # the pass's second thread where threads are allowed
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        sampled = []
        sample = simulate.sample_centers

        def sample_spy(seed, n, start=0, out=None):
            sampled.append((start, n, threading.get_ident()))
            return sample(seed, n, start, out)

        monkeypatch.setattr(simulate, "sample_centers", sample_spy)
        grid = self.CFG.checkpoints()
        shortest = _shortest(self.CFG)
        s = _switch(self.CFG, shortest, 0)
        list(simulate._prefixes(self.CFG, shortest))
        late = [(int(lo), int(hi - lo)) for lo, hi in zip(grid[s:-1], grid[s + 1:])]
        assert [(start, n) for start, n, _ in sampled[-len(late):]] == late
        # the batch after s too, which is drawn once the prefix is released
        drawn_on = {ident for *_, ident in sampled[-len(late):]}
        assert len(drawn_on) == 1 and (drawn_on != {threading.get_ident()}) == threads
        assert sum(n for _, n, _ in sampled) == self.CFG.n_max

    @pytest.mark.parametrize("stop", ["sorted", "open"])
    def test_stopped_pass_ends_its_thread(self, monkeypatch, stop):
        # a consumer that raises mid-pass closes the generator as it
        # unwinds, and with it the executor, whose thread ends at once,
        # before or after the switch
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: True)
        grid = self.CFG.checkpoints()
        shortest = np.full(grid.size, 0.01)
        s = _switch(self.CFG, shortest, 0)
        at = s - 1 if stop == "sorted" else (s + grid.size) // 2
        assert 0 < at < grid.size - 1 and (at < s) == (stop == "sorted")
        before = threading.active_count()

        def consume():
            for i, *_ in simulate._prefixes(self.CFG, shortest):
                if i == at:
                    assert threading.active_count() == before + 1
                    raise RuntimeError("consumer fault")

        with pytest.raises(RuntimeError, match="consumer fault"):
            consume()
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [False, True], ids=["one-run", "threaded"])
    def test_switching_pass_holds_part_of_the_prefix(self, monkeypatch, threads):
        # past the switch the pass holds its open gaps and two batches, not
        # n_max centers: at 2**21 it peaks near 5 B per center, where a
        # prefix of 8 B per center and its merge buffer read over 8.6
        monkeypatch.setattr(simulate, "_THREAD_MIN", 1 << 17)
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        cfg = replace(self.CFG, lengths=LogOverN(0.5), n_max=1 << 21, n_first_checkpoint=64)
        shortest = _shortest(cfg)
        assert _switch(cfg, shortest, 0) < cfg.checkpoints().size - 10
        tracemalloc.start()
        try:
            for _ in simulate._prefixes(cfg, shortest):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * cfg.n_max

    @pytest.mark.parametrize("threads", [False, True], ids=["one-run", "threaded"])
    def test_switch_holds_little_beside_the_prefix(self, monkeypatch, threads):
        # at the switch s the pass holds its prefix array of grid[s] centers,
        # 8 B each, its prefilter buffers and the open gaps being gathered;
        # it joins the halves' gaps and draws the first late batch only once
        # the array is released.  With both done beside the array, the peak
        # read 11.0 B (one-run) and 11.7 B (threaded) per center of grid[s];
        # with both done after it, 9.8 and 10.3-10.4
        monkeypatch.setattr(simulate, "_THREAD_MIN", 1 << 17)
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        cfg = replace(self.CFG, lengths=LogOverN(0.5), n_max=1 << 21, n_first_checkpoint=64)
        shortest = _shortest(cfg)
        s = _switch(cfg, shortest, 0)
        assert s < cfg.checkpoints().size - 10
        # the first pass also imports what a pass needs; the second allocates
        # only its own arrays
        for _ in range(2):
            tracemalloc.start()
            try:
                for _ in simulate._prefixes(cfg, shortest):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < {False: 10.5, True: 11.0}[threads] * cfg.checkpoints()[s]

    @pytest.mark.parametrize("threads", [False, True], ids=["one-run", "threaded"])
    def test_late_phase_fits_the_guard(self, monkeypatch, threads):
        # from the switch s on, the pass holds its open gaps, what _land
        # allocates and two batches: under what _pass_bytes counts for them,
        # _BYTES_PER_OPEN_GAP per open gap it expects at s, grid[s] *
        # exp(-_X0), and 8 B per center of the two largest consecutive batches
        monkeypatch.setattr(simulate, "_THREAD_MIN", 1 << 17)
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        cfg = replace(self.CFG, lengths=LogOverN(0.5), n_max=1 << 21, n_first_checkpoint=64)
        grid = cfg.checkpoints()
        shortest = _shortest(cfg)
        s = _switch(cfg, shortest, 0)
        batches = np.diff(grid[s:])
        assert batches.size > 10
        pair = int((batches[:-1] + batches[1:]).max())
        # the first pass also imports what a pass needs
        for _ in range(2):
            tracemalloc.start()
            try:
                # the loop holds each yield until the next, the most a
                # consumer may hold
                for i, *_ in simulate._prefixes(cfg, shortest):
                    if i == s:
                        tracemalloc.reset_peak()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - 8 * pair < (simulate._BYTES_PER_OPEN_GAP * grid[s]
                                  * math.exp(-simulate._X0))

    @pytest.mark.parametrize("consumer", ["trial", "trial-tail", "verdicts", "verdicts-tail",
                                          "tail"])
    def test_consumers_drop_each_yield_before_the_next_landing(self, monkeypatch, consumer):
        # under harmonic:3 the one late batch lands in all the open gaps at
        # once.  While it lands, neither the pass nor its consumer holds
        # anything of the checkpoint before it but the consumer's tail
        # union: beside the open gaps and the batch, under 1 B per open gap
        # is traced, where the yielded gaps held until the next step, or a
        # residue, read 16 B each, and the pass's filter mask 1 B
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: False)
        cfg = replace(self.CFG, lengths=Harmonic(3.0), n_max=5 * 10 ** 5, n_first_checkpoint=64)
        grid = cfg.checkpoints()
        assert _switch(cfg, _shortest(cfg), 0) == grid.size - 2
        run = {"trial": lambda: run_trial(cfg), "trial-tail": lambda: run_trial(cfg, 2),
               "verdicts": lambda: simulate._verdicts(cfg, [cfg.lengths], 1),
               "verdicts-tail": lambda: simulate._verdicts(cfg, [cfg.lengths], 2),
               "tail": lambda: _tail(cfg, 2)}[consumer]
        land, union = simulate._land, simulate.union
        held, unions = [], [0]

        def land_spy(a, b, first, last, fresh, lim):
            own = a.nbytes + b.nbytes + fresh.nbytes + unions[-1]
            held.append((tracemalloc.get_traced_memory()[0] - own) / a.size)
            return land(a, b, first, last, fresh, lim)

        def union_spy(u, v):
            out = union(u, v)
            unions.append(out.los.nbytes + out.his.nbytes + out.points.nbytes)
            return out

        monkeypatch.setattr(simulate, "_land", land_spy)
        monkeypatch.setattr(simulate, "union", union_spy)
        # the first run also imports what a pass needs
        for _ in range(2):
            held.clear()
            unions[:] = [0]
            tracemalloc.start()
            try:
                run()
            finally:
                tracemalloc.stop()
        assert len(held) == 1 and held[0] < 1


# rules whose n * ell(n) grows (logn, power below 1), stays (harmonic) or
# falls (power above 1), and a table of equal runs
_PASS_RULES = st.one_of(
    st.floats(0.2, 3.0).map(LogOverN),
    st.builds(PowerLaw, st.floats(0.5, 20.0), st.floats(0.3, 1.5)),
    st.floats(0.5, 12.0).map(Harmonic),
    st.just(_STEP_TABLE))


@st.composite
def _switching_passes(draw):
    """A trial config under a drawn rule, a start index into its grid, an
    _X0 and a _THREAD_MIN: passes that switch at their start, later, at
    their last checkpoint or never."""
    cfg = TrialConfig(seed=draw(st.integers(0, 2 ** 64 - 1)), lengths=draw(_PASS_RULES),
                      target=make_circle(), n_max=draw(st.integers(50, 3000)),
                      checkpoint_ratio=draw(st.sampled_from([1.1, 1.3, 2.0])),
                      n_first_checkpoint=draw(st.integers(1, 40)))
    start = draw(st.integers(0, cfg.checkpoints().size - 1))
    return cfg, start, draw(st.floats(0.25, 8.0)), draw(st.integers(8, 1 << 11))


class TestPassProperty:
    """Every yield of a whole pass, threaded and one-run, before and after
    its switch (_land included), equals a fresh sort of its prefix, bit for
    bit."""

    @settings(max_examples=100)
    @given(_switching_passes())
    def test_every_yield_equals_fresh_sort(self, case):
        cfg, start, x0, thread_min = case
        shortest = _shortest(cfg)
        # the window's grid is the suffix of cfg's
        assert _window(cfg, start).checkpoints().tobytes() == cfg.checkpoints()[start:].tobytes()
        want = _fresh_pass(cfg, shortest, start)
        with mock.patch.object(simulate, "_X0", x0), \
                mock.patch.object(simulate, "_THREAD_MIN", thread_min):
            for threads in (False, True):
                with mock.patch.object(simulate, "_threads_allowed", lambda: threads):
                    assert _pass(cfg, shortest, start) == want


def _gaps_over(cs, lim):
    """The gaps (a, b) of the sorted array cs with fl(b - a) > lim."""
    idx = np.flatnonzero(np.diff(cs) > lim)
    return cs[idx], cs[idx + 1]


_PRE = [0.1, 0.2, 0.25, 0.5, 0.9]

# a prefix, the limit its open gaps passed, the batch and the new limit;
# the prefix's gaps of 0.1, 0.05, 0.25 and 0.4 are open above 0.07 except
# the 0.05 one.  Batches wholly below the first center, wholly above the
# last, of one center inside an open gap, touching no open gap, and with
# every arrival in one gap
_LAND_CASES = {
    "on-gap-ends": (_PRE, 0.07, [0.1, 0.2, 0.25, 0.5, 0.5, 0.9], 0.07),
    "on-first-and-last": (_PRE, 0.07, [0.1, 0.1, 0.9], 0.07),
    "outside": (_PRE, 0.03, [0.0, 0.01, 0.05, 0.95, 0.99, _TOP], 0.03),
    "repeats": (_PRE, 0.07, [0.02, 0.02, 0.3, 0.3, 0.3, 0.7, 0.7, 0.97, 0.97], 0.07),
    "ulps": (_PRE, 0.07, [math.nextafter(0.1, 1.0), math.nextafter(0.2, 0.0),
                          math.nextafter(0.25, 1.0), math.nextafter(0.5, 0.0),
                          math.nextafter(0.9, 0.0)], 0.07),
    "closed-only": (_PRE, 0.07, [0.21, 0.22, 0.22, 0.24], 0.07),
    "raised-limit": (_PRE, 0.07, [0.15, 0.3, 0.6, 0.75], 0.12),
    "none-open": ([0.4, 0.45], 0.1, [0.0, 0.2, 0.42, 0.9], 0.1),
    "one-center": ([0.5], 0.1, [0.5, 0.05, 0.7], 0.1),
    "below-first": (_PRE, 0.07, [0.0, 0.03, 0.03, 0.05], 0.07),
    "above-last": (_PRE, 0.07, [0.92, 0.95, 0.99, _TOP], 0.07),
    "one-inside": (_PRE, 0.07, [0.7], 0.07),
    "wrap-only": (_PRE, 0.07, [0.02, 0.97], 0.07),
    "one-gap": (_PRE, 0.07, [0.55, 0.6, 0.6, 0.8, math.nextafter(0.9, 0.0)], 0.07),
    "drawn": (np.sort(sample_centers(1, 400)).tolist(), 3 / 400,
              np.sort(sample_centers(1, 40, start=400)).tolist(), 3.2 / 440),
}


class TestLand:
    """_land splits the open gaps by a batch: the gaps it keeps, and the
    end centers, are those of a fresh sort of prefix and batch, bit for
    bit, ties included."""

    @pytest.mark.parametrize("case", list(_LAND_CASES))
    def test_equals_fresh_sort(self, case):
        prefix, before, batch, lim = _LAND_CASES[case]
        cs = np.array(prefix)
        a, b = _gaps_over(cs, before)
        got = simulate._land(a, b, float(cs[0]), float(cs[-1]), np.sort(batch), lim)
        merged = np.sort(np.concatenate([cs, batch]))
        want = (*_gaps_over(merged, lim), merged[0], merged[-1])
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]
        assert type(got[2]) is float and type(got[3]) is float


class TestPassLayout:
    """A pass picks its layout from its horizon: one that never reaches
    _THREAD_MIN samples every center in one call and merges one run on the
    calling thread, also where _threads_allowed holds."""

    CFG = TrialConfig(seed=3, lengths=LogOverN(0.6), target=make_cantor(1 / 3, 8), n_max=3000)
    RULES = [LogOverN(c) for c in (0.6, 1.0, 2.5)]

    def test_short_pass_samples_once_on_one_thread(self, monkeypatch):
        assert self.CFG.n_max < simulate._THREAD_MIN
        sampled, steps = [], []
        sample, prefixes = simulate.sample_centers, simulate._prefixes

        def sample_spy(*args, **kwargs):
            sampled.append(None)
            return sample(*args, **kwargs)

        def prefixes_spy(*args):
            for step in prefixes(*args):
                steps.append(tuple(np.asarray(x).tobytes() for x in step))
                yield step

        monkeypatch.setattr(simulate, "sample_centers", sample_spy)
        monkeypatch.setattr(simulate, "_prefixes", prefixes_spy)
        seen = _spy_threads(monkeypatch)
        before = threading.active_count()
        got = {}
        for threads in (False, True):
            monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
            got[threads] = []
            for run in (lambda: run_trial(self.CFG, 3),
                        lambda: simulate._verdicts(self.CFG, self.RULES, 3)):
                sampled.clear()
                steps.clear()
                seen.clear()
                result = run()
                assert len(sampled) == 1
                assert seen == {threading.get_ident()}
                assert threading.active_count() == before
                got[threads].append((steps.copy(), pickle.dumps(result)))
        assert got[True] == got[False]


@pytest.fixture
def thread_min_2048(monkeypatch):
    """Halves go to two threads from a prefix of 2048 centers on."""
    monkeypatch.setattr(simulate, "_THREAD_MIN", 1 << 11)


@pytest.mark.usefixtures("thread_min_2048")
class TestTailOnlySweep:
    """A dims cell reads its tail union from _verdicts over the config of
    its window, whose pass starts there: its first step samples, sorts and
    splits a whole prefix, and its tail union must be bit for bit the one
    run_trial builds over the whole grid.  A horizon below _THREAD_MIN runs
    one run also where threads are allowed; one above it is threaded where
    they are, switches, and merges its early checkpoints on the calling
    thread."""

    @pytest.mark.parametrize("threads", [False, True], ids=["one-run", "two-thread"])
    @pytest.mark.parametrize("n_max", [1500, 5000], ids=["below", "above"])
    @pytest.mark.parametrize("target, c", [
        (make_circle(), 0.5), (make_cantor(1 / 3, 8), 1.2),
        (make_finite([0.05, 0.37, 0.9]), 0.5), *zip(_KERNEL_TARGETS[1:], (1.2, 0.5, 0.8))],
        ids=["circle", "cantor", "points", "cantor-12", "points-0", "custom"])
    def test_equals_run_trial(self, monkeypatch, target, c, n_max, threads):
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        base = TrialConfig(seed=0, lengths=LogOverN(c), target=target, n_max=n_max)
        n_cp = base.checkpoints().size
        # the pass of the whole grid, and so of each window, switches above
        # _THREAD_MIN alone
        assert (_switch(base, _shortest(base), 0) < n_cp) == (n_max > simulate._THREAD_MIN)
        found = False
        for seed in range(5):
            cfg = replace(base, seed=seed)
            for w in (1, 3, n_cp):
                got = _tail(cfg, w)
                want = run_trial(cfg, w).tail_uncovered
                _assert_bitwise(got, want)
                found |= not want.is_empty()
        assert found


# a scan's rules, in order of length; logn:0.2 leaves the target uncovered
# often enough before the window that some last failures lie there
_NESTED_RULES = [LogOverN(c) for c in (0.2, 0.5, 1.0, 1.6, 2.5)]


@pytest.mark.usefixtures("small_thread_min")
class TestForwardVerdicts:
    """_verdicts decides every checkpoint as its pass yields it, from the
    depth of the target in its gaps, and keeps only each rule's last
    failure; its verdicts must be those of a trace that decides every
    (rule, checkpoint) pair."""

    @pytest.mark.parametrize("hinted", [True, False], ids=["hinted", "unhinted"])
    @pytest.mark.parametrize("tail", [1, 5])
    @pytest.mark.parametrize("threads", [False, True], ids=["serial", "threaded"])
    @pytest.mark.parametrize("target", _KERNEL_TARGETS, ids=_KERNEL_IDS)
    def test_equals_run_trial(self, monkeypatch, target, threads, tail, hinted):
        monkeypatch.setattr(simulate, "_threads_allowed", lambda: threads)
        seen = _spy_threads(monkeypatch)
        # unhinted, each checkpoint searches every gap from a floor of 0;
        # hinted, the last checkpoint's count sets the floor, as in a scan
        hints = []
        decide = simulate._uncovered

        def spy(*args):
            hints.append(args[7])
            return decide(*args[:7], args[7] if hinted else 0)

        base = TrialConfig(seed=0, lengths=None, target=target, n_max=3000,
                           n_first_checkpoint=4)
        grid = base.checkpoints()
        before = grid.size - tail
        early = False
        for seed in range(3):
            cfg = replace(base, seed=seed)
            # the traces decide through _uncovered too, unspied
            with mock.patch.object(simulate, "_uncovered", spy):
                got = simulate._verdicts(cfg, _NESTED_RULES, tail)
            for rule, verdict in zip(_NESTED_RULES, got):
                want = run_trial(replace(cfg, lengths=rule), tail)
                assert verdict == (want.eventually_covered, want.last_failure_n,
                                   want.tail_uncovered)
                early |= verdict[1] is not None and verdict[1] < grid[before]
        assert (seen != {threading.get_ident()}) == threads
        # some checkpoint carried a count, so the hinted floor was used
        assert any(hints)
        # some rule's last failure lies before the window
        assert early

    def test_each_checkpoint_is_decided_as_it_is_yielded(self, monkeypatch):
        # the pass and the decisions alternate, one decision per checkpoint
        events = []
        prefixes, decide = simulate._prefixes, simulate._uncovered

        def pass_spy(*args):
            for step in prefixes(*args):
                events.append(("yield", step[0]))
                yield step

        def decide_spy(*args):
            events.append(("decide", events[-1][1]))
            return decide(*args)

        monkeypatch.setattr(simulate, "_prefixes", pass_spy)
        monkeypatch.setattr(simulate, "_uncovered", decide_spy)
        cfg = TrialConfig(seed=0, lengths=None, target=make_cantor(1 / 3, 8), n_max=3000)
        simulate._verdicts(cfg, _NESTED_RULES[2:], 3)
        n_cp = cfg.checkpoints().size
        assert events == [(kind, i) for i in range(n_cp) for kind in ("yield", "decide")]

    @pytest.mark.parametrize("path", ["trace", "verdicts"])
    def test_last_failure_at_the_tail_start(self, path):
        # both rules last fail at the checkpoint nearest sqrt(n_max), where
        # the eventual covering must start, so neither is eventually covered
        cfg = TrialConfig(seed=23, lengths=None, target=make_circle(), n_max=20000,
                          n_first_checkpoint=4)
        grid = cfg.checkpoints()
        tail_start = int(grid[np.argmin(np.abs(grid - math.sqrt(cfg.n_max)))])
        rules = [LogOverN(1.6), LogOverN(2.0)]
        for got in (_traces if path == "trace" else simulate._verdicts)(cfg, rules, 1):
            if path == "trace":
                assert got.n_tail_start == tail_start
                assert got.checkpoints[~got.covered][-1] == tail_start
                got = (got.eventually_covered, got.last_failure_n)
            assert got[:2] == (False, tail_start)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _critical_c(cfg, tail: int, lo: float, hi: float) -> tuple:
    """(c0, c1), adjacent floats: the largest c at which run_trial under
    logn:c leaves cfg's seed not eventually covered and the next one, found
    by bisection on the bit patterns of the positive floats in [lo, hi],
    which are ordered as the floats are."""
    def covered(bits):
        c = float(np.int64(bits).view(np.float64))
        return run_trial(replace(cfg, lengths=LogOverN(c)), tail).eventually_covered

    lo_bits, hi_bits = _bits(lo), _bits(hi)
    assert not covered(lo_bits) and covered(hi_bits)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if covered(mid):
            hi_bits = mid
        else:
            lo_bits = mid
    return tuple(float(np.int64(b).view(np.float64)) for b in (lo_bits, hi_bits))


def _wrap_is_widest(seed: int, n: int) -> bool:
    cs = np.sort(sample_centers(seed, n))
    return cs[0] + 1.0 - cs[-1] > np.diff(cs).max()


def _wrap_critical_seed(base) -> int:
    """The first seed of `base` whose critical c for the circle comes,
    about, from a wrap gap: of the checkpoints from the one nearest
    sqrt(n_max) on, the one of the largest n * (widest gap) / ln n has its
    widest gap across the seam."""
    grid = base.checkpoints()
    window = grid[np.argmin(np.abs(grid - math.sqrt(base.n_max))):]
    for seed in range(100):
        def crit(n):
            cs = np.sort(sample_centers(seed, int(n)))
            return n * max(cs[0] + 1.0 - cs[-1], np.diff(cs).max()) / math.log(n)

        n = max(window, key=crit)
        if _wrap_is_widest(seed, int(n)):
            return seed
    raise AssertionError("no seed found")


class TestCriticalTies:
    """A seed's verdict flips at one c, its critical c, where some
    checkpoint's length meets the depth of the target in its gaps.  A c
    grid of the float on each side of it puts lengths within a rounding of
    that depth, the ties _uncovered decides by their residues; the
    verdicts must still be those of a fresh sort's residues, and flip
    between the two."""

    _BASE = TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=2000,
                        n_first_checkpoint=4)
    _TAIL = 3

    def _check(self, cfg, lo, hi):
        c0, c1 = _critical_c(cfg, self._TAIL, lo, hi)
        cs = [math.nextafter(c0, 0.0), c0, c1, math.nextafter(c1, math.inf)]
        rules = [LogOverN(c) for c in cs]
        calls = []
        residue = simulate._residue

        def count(*args):
            calls.append(args[4])
            return residue(*args)

        # a window of 0 builds no tail residue, so each residue is a tie's
        with mock.patch.object(simulate, "_residue", count):
            got = simulate._verdicts(cfg, rules, 0)
        # the lengths at the flip were ties, decided by their residues
        assert calls
        assert got == [(*v, EMPTY) for v in _fresh_verdicts(cfg, rules)]
        assert [v[0] for v in got] == [False, False, True, True]
        return c0

    def test_circle(self):
        self._check(self._BASE, 0.05, 50.0)

    def test_cantor(self):
        # ell(2000) clears the depth-8 guard for c above about 0.4
        cfg = replace(self._BASE, seed=1, target=make_cantor(1 / 3, 8))
        self._check(cfg, 0.5, 50.0)

    def test_point_at_zero(self):
        # the point at 0 lies in the wrap gap alone, across the seam
        cfg = replace(self._BASE, seed=2, target=make_finite([0.0]))
        self._check(cfg, 0.01, 50.0)

    def test_wrap_gap_across_the_seam(self):
        cfg = replace(self._BASE, seed=_wrap_critical_seed(self._BASE))
        c0 = self._check(cfg, 0.05, 50.0)
        # at the critical c the widest gap of the last failure is the wrap
        # gap, and the arcs of its ends reach across the seam
        n = run_trial(replace(cfg, lengths=LogOverN(c0)), self._TAIL).last_failure_n
        assert _wrap_is_widest(cfg.seed, n)
        cs = np.sort(sample_centers(cfg.seed, n))
        r = 0.5 * float(LogOverN(c0).ell(n))
        assert cs[0] - r < 0.0 or cs[-1] + r > 1.0

    def test_exact_predicate_runs_only_on_ties(self, monkeypatch):
        # each evaluation is of a length within the band of the depth just
        # found; a grid away from every depth makes none
        c0, c1 = _critical_c(self._BASE, self._TAIL, 0.05, 50.0)
        depths, ties = [], []
        depth, residue = simulate._depth, simulate._residue

        def depth_spy(*args):
            depths.append(depth(*args))
            return depths[-1]

        def residue_spy(*args):
            ties.append((args[4], depths[-1]))
            return residue(*args)

        monkeypatch.setattr(simulate, "_depth", depth_spy)
        monkeypatch.setattr(simulate, "_residue", residue_spy)
        # a window of 0 builds no tail residue, so each residue is a tie's
        for target in _KERNEL_TARGETS:
            simulate._verdicts(replace(self._BASE, target=target), _NESTED_RULES, 0)
        assert depths and not ties
        simulate._verdicts(self._BASE, [LogOverN(c0), LogOverN(c1)], 0)
        assert ties
        for ell, d in ties:
            assert abs(ell - d) <= simulate._band(d)


class TestNestedRules:
    """_verdicts takes its rules in order of length, so at every checkpoint
    the failing rules are the first few: a seed's last failure moves
    earlier as c grows, and its verdict turns only from uncovered to
    covered."""

    @pytest.mark.parametrize("rules", [[LogOverN(1.0), LogOverN(0.5)],
                                       # harmonic:3 is the longer below n = e^6
                                       [Harmonic(3.0), LogOverN(0.5)]],
                             ids=["decreasing", "crossing"])
    def test_rules_out_of_order_are_refused(self, monkeypatch, rules):
        def refuse(*args):
            raise AssertionError("a prefix was built")

        monkeypatch.setattr(simulate, "_prefixes", refuse)
        cfg = TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=3000)
        with pytest.raises(ValueError, match="^rules must come in order of length"):
            simulate._verdicts(cfg, rules, 1)

    def test_tied_rules_are_taken(self):
        cfg = TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=3000)
        rules = [LogOverN(0.5), LogOverN(0.5), LogOverN(1.5)]
        got = simulate._verdicts(cfg, rules, 2)
        assert got[0] == got[1] == _as_verdicts(_traces(cfg, rules[:1], 2))[0]

    @pytest.mark.parametrize("target", _KERNEL_TARGETS, ids=_KERNEL_IDS)
    def test_verdicts_are_monotone_in_c(self, target):
        rules = [LogOverN(c) for c in np.arange(0.2, 3.01, 0.2)]
        base = TrialConfig(seed=0, lengths=None, target=target, n_max=3000,
                           n_first_checkpoint=4)
        moved = set()
        for seed in range(8):
            got = simulate._verdicts(replace(base, seed=seed), rules, 3)
            covered = [v[0] for v in got]
            last = [-1 if v[1] is None else v[1] for v in got]
            assert covered == sorted(covered)
            assert last == sorted(last, reverse=True)
            moved.add(tuple(covered))
        # not one verdict for every c
        assert any(any(v) and not all(v) for v in moved)

    def test_scan_fractions_never_decrease(self):
        base = TrialConfig(seed=0, lengths=None, target=make_cantor(1 / 3, 10), n_max=5000)
        scan = phase_scan([0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.6, 2.0], base, 10)
        fracs = [row.eventually_covered_fraction for row in scan.rows]
        assert scan.monotone_fractions
        assert fracs == sorted(fracs) and fracs[0] < fracs[-1]


def _stevens(n: int, a: Fraction) -> Fraction:
    """Probability that n i.i.d. uniform arcs of length a cover the circle
    (Stevens 1939): sum over k of (-1)^k C(n, k) (1 - k a)_+^(n - 1)."""
    return sum((-1) ** k * math.comb(n, k) * (1 - k * a) ** (n - 1)
               for k in range(n + 1) if k * a < 1)


class TestStevensOracle:
    def test_formula_small_case(self):
        # two arcs of length 3/4 cover iff their centers are 1/4 to 3/4 apart
        assert _stevens(2, Fraction(3, 4)) == Fraction(1, 2)
        assert _stevens(2, Fraction(1, 2)) == 0

    @pytest.mark.parametrize("a", [Fraction(1, 16), Fraction(3, 40), Fraction(1, 10)],
                             ids=["1/16", "3/40", "1/10"])
    def test_cover_probability_at_one_checkpoint(self, a):
        # A single checkpoint at n = 64 with constant length a is Stevens'
        # problem, and the formula shares no arithmetic with the gap route.
        # Bound fixed in advance: |z| <= 4 over seeds 0-3999, a two-sided
        # false-alarm rate of about 6e-5 per case.
        n, trials = 64, 4000
        base = TrialConfig(seed=0, lengths=TableSequence((float(a),) * n),
                           target=make_circle(), n_max=n)
        hits = sum(bool(run_trial(replace(base, seed=s)).covered[-1])
                   for s in range(trials))
        p = float(_stevens(n, a))
        z = (hits - trials * p) / math.sqrt(trials * p * (1.0 - p))
        assert abs(z) <= 4.0


def _log_stevens_term(n: int, k: int, a: float) -> float:
    """ln of S_k = C(n, k) (1 - k a)^(n - 1), the k-th term of Stevens' sum,
    for k a < 1."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + (n - 1) * math.log1p(-k * a))


def _uncovered_bracket(n: int, a: float) -> tuple:
    """Bonferroni bounds S1 - S2 <= p <= S1 - S2 + S3 on the probability p
    that n i.i.d. uniform arcs of length a leave the circle uncovered."""
    s1, s2, s3 = (math.exp(_log_stevens_term(n, k, a)) for k in (1, 2, 3))
    return s1 - s2, s1 - s2 + s3


def _z_outside(x: float, lo: float, hi: float, se: float) -> float:
    """How many standard errors x lies outside [lo, hi]; 0 inside."""
    return (x - min(max(x, lo), hi)) / se


class TestStevensWindow:
    """The whole tail window against Stevens' law, at a horizon no brute
    force reaches.  By linearity the mean count of uncovered checkpoints in
    the window is the sum of p over its checkpoints, however the
    checkpoints depend on each other.  Bounds fixed in advance, as in
    TestStevensOracle: |z| <= 4 over seeds 0-999."""

    def test_window_and_horizon_follow_the_exact_law(self):
        trials = 1000
        rules = [LogOverN(1.3), LogOverN(1.8)]
        base = TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=10_000)
        grid = base.checkpoints()
        tail = int(np.argmin(np.abs(grid - math.sqrt(base.n_max))))
        counts = np.zeros((len(rules), trials))
        at_horizon = np.zeros((len(rules), trials))
        for seed in range(trials):
            cfg = replace(base, seed=seed)
            # the backward walk gives each trace's last failure
            verdicts = simulate._verdicts(cfg, rules, 1)
            for j, rule in enumerate(rules):
                trace = run_trial(replace(cfg, lengths=rule))
                assert verdicts[j][1] == trace.last_failure_n
                counts[j, seed] = np.count_nonzero(~trace.covered[tail:])
                at_horizon[j, seed] = verdicts[j][1] == base.n_max
        for j, rule in enumerate(rules):
            ells = rule.ell(grid[tail:].astype(np.float64))
            brackets = [_uncovered_bracket(int(n), float(a)) for n, a in zip(grid[tail:], ells)]
            lo, hi = (sum(ends) for ends in zip(*brackets))
            se = counts[j].std(ddof=1) / math.sqrt(trials)
            assert abs(_z_outside(counts[j].mean(), lo, hi, se)) <= 4.0
            # the last failure is at the horizon iff the horizon is uncovered
            frac = at_horizon[j].mean()
            p = min(max(frac, brackets[-1][0]), brackets[-1][1])
            assert abs(_z_outside(frac, *brackets[-1], math.sqrt(p * (1 - p) / trials))) <= 4.0


def _neighbourhood_measure(target):
    """S_A, the measure of the target's eps-neighbourhood A + [0, eps]:
    S_A(eps) = min(1, |A| + sum_j min(g_j, eps)), g_j the circular gaps
    between A's pieces and points, and S_A(eps) = 0 for eps <= 0.  Takes
    an array of eps."""
    u = target.approx
    starts = np.concatenate([u.los, u.points])
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], np.concatenate([u.his, u.points])[order]
    gaps = np.sort(np.append(starts[1:] - ends[:-1], starts[0] + 1.0 - ends[-1]))
    # head[k], the sum of the k shortest gaps
    head = np.concatenate(([0.0], np.cumsum(gaps)))
    size = measure(u)

    def s_a(eps):
        eps = np.asarray(eps, dtype=np.float64)
        k = np.searchsorted(gaps, eps, side="right")
        return np.where(eps > 0.0, np.minimum(1.0, size + head[k] + (gaps.size - k) * eps), 0.0)

    return s_a


def _brute_neighbourhood(target, eps: float) -> float:
    """|A + [0, eps]| for 0 < eps < 1, by union on the circle: each piece
    [s, t] or point s of A becomes [s, t + eps], split at the seam."""
    u = target.approx
    pieces = []
    for s, t in [*zip(u.los, u.his), *((p, p) for p in u.points)]:
        hi = t + eps
        pieces.append((s, min(hi, 1.0)))
        if hi > 1.0:
            pieces.append((0.0, min(hi - 1.0, 1.0)))
    return measure(IntervalUnion(pieces))


def _gaps_meeting(cs, ell, target) -> int:
    """N_A: how many circular gaps of the sorted centers `cs` leave an
    uncovered middle under arcs of length `ell` that meets the target, as
    intersect has it; a wrap gap split at the seam counts once."""
    gaps = uncovered_at(cs, ell)
    resid = gaps if target.kind == "circle" else intersect(gaps, target.approx)
    # each part of the residue lies in one piece, the last to start at or
    # below it; a point at 0 lies in the seam pair, whose first piece is 0
    hit = np.unique(gaps.los.searchsorted(np.concatenate([resid.los, resid.points]),
                                          side="right") - 1)
    seam = gaps.los.size >= 2 and gaps.los[0] == 0.0 and gaps.his[-1] == 1.0
    return hit.size - int(seam and hit.size >= 2 and hit[0] == 0
                          and hit[-1] == gaps.los.size - 1)


def _first_moment(n: int, ell: float, s_a) -> float:
    """E[N_A(n, ell)] = n (n - 1) int_ell^1 (1 - x)^(n - 2) S_A(x - ell) dx,
    by the midpoint rule over x - ell up to 60 / n, past which the weight
    is below exp(-59)."""
    h = min(1.0 - ell, 60.0 / n) / 100_000
    eps = (np.arange(100_000) + 0.5) * h
    return float(np.sum(np.exp((n - 2.0) * np.log1p(-ell - eps)) * s_a(eps)) * h
                 * n * (n - 1.0))


_LAW_TARGETS = {
    "circle": make_circle(),
    "cantor": make_cantor(1 / 3, 8),
    "points": make_finite([0.0, 0.13, 0.5, 0.77]),
}


class TestFirstMomentLaw:
    """The number of gaps whose uncovered middle meets the target A, against
    its exact mean: the gap after a given center has density (n - 1)(1 -
    x)^(n - 2) whatever that center's position, and its middle meets A for
    a set of positions of measure S_A(x - ell).  For the circle S_A = 1 and
    the mean is Stevens' first term n (1 - ell)^(n - 1).  This checks the
    residue's target side (intersect, the seam pieces, a point at 0) at an
    n no brute force reaches.  Bounds fixed in advance: |z| <= 4 over seeds
    0-1999."""

    @pytest.mark.parametrize("target", [
        *_LAW_TARGETS.values(), make_cantor(1 / 3, 12), _KERNEL_TARGETS[3],
        *(make_custom(IntervalUnion(np.sort(np.random.default_rng(k).random(2 * m))
                                    .reshape(-1, 2).tolist()), 1.0)
          for k, m in ((0, 3), (1, 20)))],
        ids=[*_LAW_TARGETS, "cantor-12", "custom", "random-3", "random-20"])
    def test_neighbourhood_measure_equals_brute_force(self, target):
        s_a = _neighbourhood_measure(target)
        for eps in (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.9):
            assert float(s_a(eps)) == pytest.approx(_brute_neighbourhood(target, eps), abs=1e-12)
        assert not np.any(s_a([-0.1, 0.0]))

    # the custom target has a piece that touches 0 and one that ends at 1
    @pytest.mark.parametrize("name, c", [("circle", 0.8), ("cantor", 0.8), ("points", 0.5),
                                         ("custom", 0.8)])
    def test_mean_count_follows_the_law(self, name, c):
        target = {**_LAW_TARGETS, "custom": _KERNEL_TARGETS[3]}[name]
        n, seeds = 4000, range(2000)
        ell = float(LogOverN(c).ell(n))
        s_a = _neighbourhood_measure(target)
        want = _first_moment(n, ell, s_a)
        if name == "circle":
            assert want == pytest.approx(n * (1.0 - ell) ** (n - 1), rel=1e-6)
        counts = np.array([_gaps_meeting(np.sort(sample_centers(s, n)), ell, target)
                           for s in seeds])
        assert counts.mean() >= 0.05
        z = (counts.mean() - want) / (counts.std(ddof=1) / math.sqrt(len(seeds)))
        assert abs(z) <= 4.0


class TestTailUncovered:
    def test_window_one_is_final_residue(self):
        cfg = TrialConfig(seed=2, lengths=LogOverN(0.5), target=make_circle(), n_max=20_000)
        got = run_trial(cfg, 1).tail_uncovered
        centers = np.sort(sample_centers(2, 20_000))
        want = uncovered_at(centers, float(LogOverN(0.5).ell(20_000)))
        assert got == want

    def test_monotone_in_window(self):
        cfg = TrialConfig(seed=2, lengths=LogOverN(0.5), target=make_circle(), n_max=20_000)
        m = [measure(run_trial(cfg, t).tail_uncovered) for t in (1, 3, 5)]
        assert m[0] <= m[1] <= m[2]

    def test_subcritical_residue_scale_at_large_horizon(self):
        # oracle: expected uncovered measure at n is (1 - ell)^n ~ n^{-c},
        # so a 5-checkpoint tail union at c = 0.5, n_max = 1e6 sits within
        # a small factor of 1e-3
        cfg = TrialConfig(seed=0, lengths=LogOverN(0.5), target=make_circle(),
                          n_max=10 ** 6)
        got = measure(run_trial(cfg, 5).tail_uncovered)
        want = (10 ** 6) ** -0.5
        assert not run_trial(cfg, 1).tail_uncovered.is_empty()
        assert want / 5 <= got <= want * 5

    def test_intersected_with_target(self):
        t = make_cantor(1 / 3, 8)
        cfg = TrialConfig(seed=4, lengths=LogOverN(1.0), target=t, n_max=1000)
        got = run_trial(cfg, 2).tail_uncovered
        assert measure(intersect(got, t.approx)) == pytest.approx(measure(got), abs=1e-12)

    def test_window_validation(self):
        cfg = TrialConfig(seed=2, lengths=LogOverN(0.5), target=make_circle(), n_max=1000)
        with pytest.raises(ConfigError, match="tail_checkpoints"):
            run_trial(cfg, -1)
        with pytest.raises(ConfigError, match="tail_checkpoints"):
            run_trial(cfg, cfg.checkpoints().size + 1)
        run_trial(cfg, cfg.checkpoints().size)  # the whole grid is a window
        assert run_trial(cfg, 0).tail_uncovered == EMPTY
        assert run_trial(cfg).tail_uncovered == EMPTY
        # c < 1 leaves the horizon uncovered, and trace equality sees the tail
        assert run_trial(cfg, 1) != run_trial(cfg)
