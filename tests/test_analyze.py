import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from arccover import (ConfigError, DimensionEstimate, EMPTY, FULL_CIRCLE,
                      IntervalUnion, LogOverN, ScanRow, TrialConfig, analyze,
                      box_dimension, make_cantor, make_circle, make_custom, make_finite,
                      measure, nested_scales, occupied_cell_count, phase_scan,
                      run_trial, sample_centers, simulate, uncovered_at,
                      uncovered_dimension_experiment, union, wilson_interval)


class TestOccupiedCells:
    def test_full_circle(self):
        for k in range(1, 8):
            assert occupied_cell_count(FULL_CIRCLE, 2.0 ** -k) == 2 ** k

    def test_single_piece(self):
        u = IntervalUnion([(0.1, 0.3)])
        assert occupied_cell_count(u, 0.25) == 2  # cells [0, .25) and [.25, .5)

    def test_boundary_snap(self):
        # piece ending exactly on a cell boundary must not spill over
        u = IntervalUnion([(0.25, 0.5)])
        assert occupied_cell_count(u, 0.25) == 1

    def test_points_count_cells(self):
        u = IntervalUnion(points=[0.1, 0.6])
        assert occupied_cell_count(u, 0.5) == 2


class TestBoxDimension:
    def test_full_circle_dyadic_slope_one(self):
        est = box_dimension(FULL_CIRCLE, [2.0 ** -k for k in range(1, 9)])
        assert est.slope == pytest.approx(1.0, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_point_like_interval_slope_zero(self):
        u = IntervalUnion([(0.5, 0.5 + 1e-9)])
        est = box_dimension(u, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        assert est.counts.max() <= 2
        assert est.slope == pytest.approx(0.0, abs=0.1)

    def test_cantor_slope(self):
        t = make_cantor(1 / 3, 12)
        est = box_dimension(t.approx, [3.0 ** -j for j in range(2, 11)])
        assert est.slope == pytest.approx(np.log(2) / np.log(3), abs=0.02)

    def test_empty_flagged_degenerate(self):
        est = box_dimension(EMPTY, [0.1, 0.01, 0.001])
        assert est.degenerate and est.slope == 0.0

    def test_counts_monotone_hard_assertion(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            DimensionEstimate(scales=np.array([0.1, 0.01, 0.001]),
                              counts=np.array([5, 3, 7]), slope=0.5, r_squared=0.9)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            box_dimension(FULL_CIRCLE, [0.1, 0.01])
        with pytest.raises(ValueError):
            box_dimension(FULL_CIRCLE, [1.5, 0.1, 0.01])


class TestNestedScales:
    def test_anchored_fine_and_nested(self):
        scales = nested_scales(1e-5, 3e-3)
        assert scales[-1] == pytest.approx(1e-5)
        assert np.all(np.diff(scales) < 0)
        assert np.all(scales <= 3e-3 + 1e-15)
        ratios = scales[:-1] / scales[1:]
        assert np.allclose(ratios, 2.0)

    def test_too_narrow(self):
        with pytest.raises(ValueError):
            nested_scales(0.1, 0.2)


class TestWilson:
    def test_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert lo > 0.95 and hi == pytest.approx(1.0)

    def test_known_value(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.404, abs=0.005)
        assert hi == pytest.approx(0.596, abs=0.005)


@pytest.fixture
def no_pool(monkeypatch):
    """A process pool that cannot start: the experiment must refuse its
    configuration in the parent."""
    def refuse(*args, **kwargs):
        raise AssertionError("the pool started")

    monkeypatch.setattr(analyze, "ProcessPoolExecutor", refuse)


@pytest.fixture
def inline_pool(monkeypatch):
    """A process pool that records its max_workers and runs its cells
    inline, in this process: the list of the pools built."""
    built = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            built.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(analyze, "_context", None)
    monkeypatch.setattr(analyze, "ProcessPoolExecutor", InlinePool)
    return built


def small_base(target=None, n_max=3000):
    return TrialConfig(seed=0, lengths=None, target=target or make_circle(),
                       n_max=n_max)


class TestPhaseScan:
    def test_single_trial_fraction_is_zero_or_one(self):
        scan = phase_scan([0.5, 2.5], small_base(), 1)
        for row in scan.rows:
            assert row.eventually_covered_fraction in (0.0, 1.0)

    def test_regime_labels(self):
        scan = phase_scan([0.5, 1.5, 2.5], small_base(), 1)
        assert [r.regime for r in scan.rows] == ["no-cover", "theorem-silent", "cover"]

    def test_cantor_band_is_theorem_silent(self):
        t = make_cantor(1 / 3, 8)
        scan = phase_scan([0.3, 1.0, 2.0], small_base(target=t, n_max=800), 2)
        assert scan.rows[0].regime == "no-cover"
        assert scan.rows[1].regime == "theorem-silent"
        assert scan.rows[2].regime == "cover"
        assert scan.dim_H == pytest.approx(np.log(2) / np.log(3))
        assert scan.cover_threshold == pytest.approx(1 + np.log(2) / np.log(3))

    def test_deterministic_and_jobs_independent(self):
        a = phase_scan([0.5, 2.5], small_base(), 4, jobs=1)
        b = phase_scan([0.5, 2.5], small_base(), 4, jobs=2)
        assert a.to_dict() == b.to_dict()

    def test_threshold_midpoint(self):
        scan = phase_scan([0.5, 2.5], small_base(), 6)
        low, high = (r.eventually_covered_fraction for r in scan.rows)
        if high > low:
            assert scan.c_star == pytest.approx(1.5)
            assert scan.c_star_uncertainty == pytest.approx(2.0)

    def test_grid_validation(self):
        # a ConfigError, which is a ValueError, naming the field
        for c_grid, trials, field in (([2.5, 0.5], 1, "c"), ([], 1, "c"),
                                      ([0.0, 1.0], 1, "c"), ([0.5], 0, "trials")):
            with pytest.raises(ConfigError, match=f"^{field}: ") as exc:
                phase_scan(c_grid, small_base(), trials)
            assert exc.value.field == field

    def test_partial_results_when_some_c_fail(self):
        # at n_max = 3000 the depth-8 guard needs ell(n_max) > 1.5e-3:
        # c = 0.3 gives 8.0e-4 (fails), c = 2.0 gives 5.3e-3 (runs)
        t = make_cantor(1 / 3, 8)
        scan = phase_scan([0.3, 2.0], small_base(target=t, n_max=3000), 2)
        assert [r.c for r in scan.rows] == [2.0]
        assert list(scan.failed) == [0.3]
        assert "pre-fractal" in scan.failed[0.3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_cells_failing_raises(self, no_pool, jobs):
        t = make_cantor(1 / 3, 8)
        with pytest.raises(ConfigError, match="^c: every scan cell failed; "
                                              "first error: target: pre-fractal"):
            phase_scan([0.2, 0.3], small_base(target=t, n_max=3000), 2, jobs=jobs)

    @pytest.mark.parametrize("grid", [[math.nan], [math.inf], [-math.inf], [0.5, math.inf]],
                             ids=["nan", "inf", "-inf", "finite-then-inf"])
    def test_c_must_be_finite(self, no_pool, monkeypatch, grid):
        def no_rule(c):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(analyze, "LogOverN", no_rule)
        base = TrialConfig(seed=0, lengths=None, target=make_circle(), n_max=1000)
        with pytest.raises(ConfigError, match=r"^c: grid must be finite, positive and "
                                              r"strictly increasing, got \["):
            phase_scan(grid, base, 1)

    def test_cells_get_only_the_c_the_guard_passes(self, monkeypatch):
        contexts = []
        map_seeds = analyze._map_seeds

        def spy(cell, seeds, context, jobs):
            contexts.append(context)
            return map_seeds(cell, seeds, context, jobs)

        monkeypatch.setattr(analyze, "_map_seeds", spy)
        t = make_cantor(1 / 3, 8)
        scan = phase_scan([0.3, 0.6, 2.0], small_base(target=t, n_max=3000), 2)
        assert [[r.c for r in ctx[1]] for ctx in contexts] == [[0.6, 2.0]]
        assert list(scan.failed) == [0.3]

    def test_internal_fault_is_not_a_failed_cell(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(analyze, "_verdicts", broken)
        with pytest.raises(ValueError, match="^internal fault$"):
            phase_scan([0.5, 2.5], small_base(), 1)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers must inherit the patched kernel")
    def test_internal_fault_in_a_worker_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(analyze, "_verdicts", broken)
        with pytest.raises(ValueError, match="^internal fault$"):
            phase_scan([0.5, 2.5], small_base(), 2, jobs=2)


    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers must inherit the patched kernel")
    def test_pool_workers_start_no_kernel_threads(self, monkeypatch):
        # the scan's pool already fills the cores, so its workers run the
        # two halves of the prefix one after the other
        def no_threads(*args, **kwargs):
            raise AssertionError("a kernel thread started")

        monkeypatch.setattr(simulate, "_THREAD_MIN", 14)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_threads)
        # here, outside a pool, the kernel would start one
        with pytest.raises(AssertionError, match="kernel thread"):
            run_trial(replace(small_base(), lengths=LogOverN(1.0)))
        scan = phase_scan([0.5, 2.5], small_base(), 2, jobs=2)
        assert len(scan.rows) == 2 and not scan.failed


def _rows_one_trial_at_a_time(c_grid, base, trials, tail=5):
    """phase_scan's rows and failures, rebuilt from one independent trial
    per (c, seed)."""
    tail = min(tail, base.checkpoints().size)
    rows, failed = [], {}
    for c in c_grid:
        runs = []
        for t in range(trials):
            cfg = replace(base, seed=base.seed + t, lengths=LogOverN(c))
            try:
                runs.append(run_trial(cfg, tail))
            except ConfigError as exc:
                failed.setdefault(c, str(exc))
        if c in failed:
            continue
        cov = [trace.eventually_covered for trace in runs]
        fails = [trace.last_failure_n for trace in runs
                 if trace.last_failure_n is not None]
        lo, hi = wilson_interval(sum(cov), trials)
        rows.append(ScanRow(
            c=c, trials=trials, eventually_covered_fraction=sum(cov) / trials,
            wilson_low=lo, wilson_high=hi,
            mean_last_failure_n=float(np.mean(fails)) if fails else None,
            mean_tail_uncovered_measure=float(np.mean([measure(trace.tail_uncovered)
                                                       for trace in runs])),
            regime=analyze.classify_regime(c, base.target)))
    return tuple(rows), failed


# values an integer field refuses: a fraction, a bool, an integral float
NOT_INTEGERS = [1.5, True, 2.0, np.float64(3.0)]
NOT_INTEGER_IDS = ["fraction", "bool", "integral-float", "numpy-float"]


class TestIntegerFields:
    """The experiments refuse a bool or a float where an integer goes,
    naming the field, before any cell runs."""

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    @pytest.mark.parametrize("field", ["trials", "tail_checkpoints"])
    def test_phase_scan(self, no_pool, field, bad):
        trials, tail = (bad, 1) if field == "trials" else (2, bad)
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer, got "):
            phase_scan([0.5, 2.5], small_base(), trials, jobs=2, tail_checkpoints=tail)

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    @pytest.mark.parametrize("field", ["n_max", "seeds", "tail_checkpoints"])
    def test_dimension_experiment(self, no_pool, field, bad):
        args = {"n_max": 20_000, "seeds": [0, 1], "tail_checkpoints": 1}
        args[field] = [0, bad] if field == "seeds" else bad
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer, got "):
            uncovered_dimension_experiment(0.5, args["n_max"], args["seeds"], jobs=2,
                                           tail_checkpoints=args["tail_checkpoints"])

    def test_numpy_integers_are_taken(self):
        assert (phase_scan([0.5, 2.5], small_base(), np.int64(2), tail_checkpoints=np.int8(1))
                == phase_scan([0.5, 2.5], small_base(), 2, tail_checkpoints=1))
        got = uncovered_dimension_experiment(0.5, np.int64(20_000), np.arange(2))
        want = uncovered_dimension_experiment(0.5, 20_000, [0, 1])
        assert (got.n_max, got.seeds, got.mean_slope) == (want.n_max, want.seeds, want.mean_slope)
        for g, w in zip(got.estimates, want.estimates):
            assert np.array_equal(g.counts, w.counts)


class TestWorkerCount:
    """jobs caps the pool, which never has more workers than cells or
    usable CPUs; the fake pool never starts a process."""

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_refused(self, no_pool, jobs):
        with pytest.raises(ConfigError, match=f"^jobs: must be >= 1, got {jobs}$"):
            phase_scan([0.5, 2.5], small_base(), 2, jobs=jobs)
        with pytest.raises(ConfigError, match=f"^jobs: must be >= 1, got {jobs}$"):
            uncovered_dimension_experiment(0.5, 20_000, range(2), jobs=jobs)

    @pytest.mark.parametrize("cpus", [None, 1, 2, 8], ids=["usable", "1", "2", "8"])
    def test_workers_are_capped_by_cells_and_cpus(self, monkeypatch, inline_pool, cpus):
        if cpus is not None:
            monkeypatch.setattr(analyze, "_usable_cpus", lambda: cpus)
        want = min(3, analyze._usable_cpus())
        scan = phase_scan([0.5, 2.5], small_base(), 3, jobs=10_000)
        dims = uncovered_dimension_experiment(0.5, 20_000, range(3), jobs=10_000)
        assert inline_pool == ([] if want == 1 else [want, want])
        assert scan.to_dict() == phase_scan([0.5, 2.5], small_base(), 3).to_dict()
        inline = uncovered_dimension_experiment(0.5, 20_000, range(3))
        assert ([e.counts.tobytes() for e in dims.estimates]
                == [e.counts.tobytes() for e in inline.estimates])

    def test_one_cell_runs_inline(self, inline_pool):
        phase_scan([0.5, 2.5], small_base(), 1, jobs=2)
        uncovered_dimension_experiment(0.5, 20_000, [4], jobs=2)
        assert inline_pool == []


class TestSeedMajorScan:
    """The scan sweeps each seed over the whole c grid; its rows must equal
    those of independent per-(c, seed) trials."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("case", [
        ("circle", make_circle(), 3000, [0.5, 1.0, 1.5, 2.5], 4),
        # at n_max = 3000 the depth-8 guard fails c = 0.3 only
        ("cantor", make_cantor(1 / 3, 8), 3000, [0.3, 0.6, 1.0, 2.0], 3),
        ("finite", make_finite([0.05, 0.3, 0.61, 0.99]), 2000, [0.2, 0.6, 1.2], 4),
        ("points0", make_finite([0.0, 0.25, 0.5, 0.999]), 2000, [0.2, 0.6, 1.2], 4),
        ("custom", make_custom(IntervalUnion([(0.0, 0.1), (0.45, 0.55), (0.9, 1.0)]), 1.0),
         2000, [0.3, 1.0, 2.0], 4),
    ], ids=lambda case: case[0])
    def test_matches_independent_trials(self, case, jobs):
        _, target, n_max, c_grid, trials = case
        base = replace(small_base(target=target, n_max=n_max), seed=11)
        scan = phase_scan(c_grid, base, trials, jobs=jobs)
        rows, failed = _rows_one_trial_at_a_time(c_grid, base, trials)
        assert scan.rows == rows
        assert scan.failed == failed
        if case[0] == "cantor":
            assert list(failed) == [0.3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_seed_overflow_is_a_config_error(self, no_pool, jobs):
        base = replace(small_base(), seed=2 ** 64 - 2)
        with pytest.raises(ConfigError, match=f"^seed: .* got {2 ** 64}$"):
            phase_scan([0.5], base, 3, jobs=jobs)


class TestDimensionExperiment:
    def test_floor_and_flags(self):
        scan = uncovered_dimension_experiment(0.5, 50_000, range(2))
        assert scan.analytic_floor == pytest.approx(0.5)
        assert not scan.floor_vacuous
        assert len(scan.estimates) == 2

    def test_vacuous_when_c_exceeds_dimension(self):
        scan = uncovered_dimension_experiment(1.2, 50_000, range(2))
        assert scan.floor_vacuous

    def test_counts_monotone_in_estimates(self):
        scan = uncovered_dimension_experiment(0.5, 50_000, range(3))
        for est in scan.estimates:
            assert np.all(np.diff(est.counts) >= 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scale_guard_is_a_config_error(self, no_pool, jobs):
        with pytest.raises(ConfigError, match="^target: pre-fractal"):
            uncovered_dimension_experiment(0.3, 100_000, range(2), jobs=jobs,
                                           target=make_cantor(1 / 3, 8))

    @pytest.mark.parametrize("c", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_c_must_be_finite_and_positive(self, no_pool, c):
        with pytest.raises(ConfigError, match=r"^c: must be finite and > 0, got ") as exc:
            uncovered_dimension_experiment(c, 20_000, range(2), jobs=2)
        assert exc.value.field == "c"

    def test_empty_seed_list_is_a_config_error(self, no_pool):
        with pytest.raises(ConfigError, match="^seeds: ") as exc:
            uncovered_dimension_experiment(0.5, 20_000, [], jobs=2)
        assert exc.value.field == "seeds"

    @pytest.mark.parametrize("seeds", [[2 ** 64, 0], [3, -1]])
    def test_seed_outside_the_range_is_a_config_error(self, no_pool, seeds):
        with pytest.raises(ConfigError, match="^seed: "):
            uncovered_dimension_experiment(0.5, 20_000, seeds, jobs=2)

    @pytest.mark.parametrize("window", [1, 3])
    def test_cell_starts_at_the_tail_window(self, monkeypatch, window):
        # the dims cell merges and prefilters only the window's checkpoints,
        # and decides coverage at none of them
        calls = {"_prefix_gaps": 0, "_uncovered": 0, "_leaves_uncovered": 0}
        for name in calls:
            def counted(*args, _real=getattr(simulate, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(simulate, name, counted)
        cfg = TrialConfig(seed=3, lengths=LogOverN(0.5), target=make_circle(), n_max=20_000)
        scales = nested_scales(float(LogOverN(0.5).ell(20_000)), 0.05)
        est = analyze._dims_cell(3, (replace(cfg, seed=0), window, scales))
        assert calls == {"_prefix_gaps": window, "_uncovered": 0, "_leaves_uncovered": 0}
        want = box_dimension(run_trial(cfg, window).tail_uncovered, scales)
        assert np.array_equal(est.counts, want.counts)

    def test_estimates_do_not_depend_on_jobs(self):
        scans = [uncovered_dimension_experiment(0.5, 50_000, range(4), tail_checkpoints=3,
                                                jobs=jobs) for jobs in (1, 2)]
        one, two = ([(e.scales.tobytes(), e.counts.tobytes(), e.slope, e.r_squared,
                      e.degenerate) for e in scan.estimates] for scan in scans)
        assert one == two
        assert scans[0].seeds == scans[1].seeds == (0, 1, 2, 3)
        assert scans[0].mean_slope == scans[1].mean_slope

    def test_seeds_are_sorted(self):
        shuffled = uncovered_dimension_experiment(0.5, 20_000, [2, 0, 1])
        ordered = uncovered_dimension_experiment(0.5, 20_000, range(3))
        assert shuffled.seeds == ordered.seeds == (0, 1, 2)
        assert ([e.counts.tobytes() for e in shuffled.estimates]
                == [e.counts.tobytes() for e in ordered.estimates])

    def test_trial_kernel_tail_matches_run_trial(self):
        cfg = TrialConfig(seed=6, lengths=LogOverN(0.7), target=make_circle(), n_max=2000)
        trace = run_trial(cfg, 3)
        assert replace(trace, tail_uncovered=EMPTY) == run_trial(cfg)
        # the union of the last three residues, each from a fresh sort
        centers = sample_centers(6, 2000)
        want = EMPTY
        for n, ell in zip(trace.checkpoints[-3:], trace.ells[-3:]):
            want = union(want, uncovered_at(np.sort(centers[:n]), float(ell)))
        assert trace.tail_uncovered == want
        assert not trace.tail_uncovered.is_empty()
