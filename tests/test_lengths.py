import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from arccover import lengths
from arccover import (ConfigError, Harmonic, LogOverN,
                      PowerLaw, Schedule, ScheduleError, TableSequence,
                      block_sequence, choose_schedule, covering_series,
                      estimate_covering_exponent, estimate_delta,
                      parse_lengths, rare_block_sum, shepp_series)
from arccover.lengths import CLAMP_MAX

EULER_GAMMA = 0.5772156649015329


def refused(field, match=""):
    """Expect a ConfigError that names `field`, its message matching `match`."""
    return pytest.raises(ConfigError, match=f"^{field}: .*{match}")


class TestEval:
    def test_log_over_n_formula(self):
        assert LogOverN(2.0).ell(7) == pytest.approx(2 * math.log(7) / 7, rel=1e-15)
        assert LogOverN(2.0).ell(7) == pytest.approx(0.5559, abs=1e-4)

    def test_log_over_n_first_value(self):
        L = LogOverN(1.0)
        assert L.ell(1) == L.ell(2) == math.log(2) / 2

    def test_harmonic(self):
        assert Harmonic(1.0).ell(4) == 0.25

    def test_power(self):
        assert PowerLaw(1.0, 0.5).ell(16) == pytest.approx(0.25)

    def test_vectorized(self):
        L = Harmonic(1.0)
        got = L.ell(np.array([1.0, 2.0, 4.0]))
        assert np.allclose(got, [1.0 - 1e-9, 0.5, 0.25])

    def test_clamp_keeps_below_one(self):
        assert Harmonic(1.5).ell(1) < 1.0
        assert LogOverN(12.0).ell(3) < 1.0

    def test_huge_c_clamps_without_warning(self):
        # c ln n overflows to inf, which the clamp takes to CLAMP_MAX silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert LogOverN(1e308).ell(10) == CLAMP_MAX
            assert np.all(LogOverN(sys.float_info.max).ell(np.array([1.0, 10.0, 1e6]))
                          == CLAMP_MAX)

    def test_non_increasing(self):
        # ln(n)/n rises from n=2 to n=3 before decaying, so the logn family
        # is scanned from n=3; all other rules are monotone from n=1
        ns = np.arange(3, 5000, dtype=float)
        for L in (LogOverN(2.5), Harmonic(1.5), PowerLaw(2.0, 0.7)):
            assert np.all(np.diff(L.ell(ns)) <= 0)
        table = TableSequence((0.5, 0.5, 0.25, 0.1))
        assert np.all(np.diff(table.ell(np.arange(1, 5, dtype=float))) <= 0)

    def test_rejects_bad_parameters(self):
        with refused("lengths"):
            LogOverN(0.0)
        with refused("lengths"):
            PowerLaw(1.0, -0.5)
        with refused("lengths"):
            TableSequence((0.2, 0.5))
        with refused("lengths"):
            TableSequence((1.2,))

    def test_index_guards(self):
        with refused("n"):
            Harmonic(1.0).ell(0)
        with refused("n"):
            Harmonic(1.0).ell(2 ** 60)
        with refused("lengths"):
            TableSequence((0.5, 0.4)).ell(3)

    @pytest.mark.parametrize("ns", [[10.5, 20.2], 5.5, [6.0, 20.2], float("nan")],
                             ids=["list", "scalar", "second", "nan"])
    def test_partial_sums_refuse_fractional_indices(self, ns):
        # their fill loop never reaches a fractional index
        with refused("ns", "integer indices"):
            LogOverN(1.0).partial_sums(ns)
        with refused("ns", "integer indices"):
            block_sequence(LogOverN(1.0), Schedule((4, 16))).partial_sums(ns)

    def test_partial_sums_take_integral_floats(self):
        L = LogOverN(1.0)
        want = float(np.sum(L.ell(np.arange(1, 7, dtype=float))))
        assert L.partial_sums(6.0) == L.partial_sums(6) == pytest.approx(want, rel=1e-15)
        assert L.partial_sums(np.array([6.0, 20.0]))[0] == L.partial_sums(6)
        # the log-spaced grid of the estimates is integral
        assert estimate_covering_exponent(L, (10, 10 ** 4)) > 0

    @pytest.mark.parametrize("rule", [LogOverN(1.0), TableSequence((0.5, 0.4)),
                                      block_sequence(Harmonic(1.0), Schedule((2, 4)))],
                             ids=["formula", "table", "block"])
    def test_no_indices_give_no_sums(self, rule):
        # as ell([]) does, for every kind of rule
        for ns in ([], np.array([], dtype=np.int64)):
            got = rule.partial_sums(ns)
            assert isinstance(got, np.ndarray) and got.shape == (0,)
        assert rule.ell([]).shape == (0,)


class TestDelta:
    @pytest.mark.parametrize("c", [0.3, 0.5, 1.0, 2.5])
    def test_log_over_n_exact(self, c):
        assert estimate_delta(LogOverN(c), (10, 10 ** 6)) == pytest.approx(c, abs=1e-12)

    def test_log_over_n_exact_from_three(self):
        # the ratio n ell(n)/ln n is identically c from n = 3 on
        assert estimate_delta(LogOverN(0.7), (3, 500)) == pytest.approx(0.7, abs=1e-12)

    def test_harmonic_min_at_top(self):
        got = estimate_delta(Harmonic(3.0), (10, 10 ** 6))
        assert got == pytest.approx(3.0 / math.log(10 ** 6), rel=1e-12)

    def test_power_min_at_bottom(self):
        # ratio n^0.5 / ln n increases over [10, 1e6], so the min sits at n_lo
        got = estimate_delta(PowerLaw(1.0, 0.5), (10, 10 ** 6))
        assert got == pytest.approx(math.sqrt(10) / math.log(10), rel=1e-12)
        assert got == pytest.approx(1.373, abs=1e-3)

    def test_range_validation(self):
        for estimate in (estimate_delta, estimate_covering_exponent):
            for bad in ((1, 100), (50, 50)):
                with refused("n_range", "need 2 <= n_lo < n_hi, got "):
                    estimate(Harmonic(1.0), bad)
            # a float or bool bound is refused, not truncated; numpy integers pass
            for bad in ((2.9, 100.9), (2.0, 100), (2, True)):
                with refused("n_range", "must be an integer, got "):
                    estimate(Harmonic(1.0), bad)
            assert (estimate(Harmonic(1.0), (np.int64(3), np.int32(500)))
                    == estimate(Harmonic(1.0), (3, 500)))


class TestCoveringExponent:
    def test_harmonic_near_one(self):
        # sum_{s<=N} 1/s = ln N + gamma + o(1), so the ratio at N=1e5 is
        # about 1 + gamma/ln(1e5); sample ranges near the top see ~1.05
        got = estimate_covering_exponent(Harmonic(1.0), (90_000, 100_000))
        want = 1.0 + EULER_GAMMA / math.log(100_000)
        assert got == pytest.approx(want, abs=2e-3)
        assert got == pytest.approx(1.05, abs=5e-3)

    def test_harmonic_trends_to_one(self):
        near = estimate_covering_exponent(Harmonic(1.0), (90_000, 100_000))
        far = estimate_covering_exponent(Harmonic(1.0), (900_000, 1_000_000))
        assert 1.0 < far < near

    def test_log_over_n_divergent_trend(self):
        got = estimate_covering_exponent(LogOverN(1.0), (10, 10 ** 5))
        # independent oracle: direct accumulation of every term
        direct = np.cumsum(LogOverN(1.0).ell(np.arange(1, 10 ** 5 + 1, dtype=float)))
        want = direct[-1] / math.log(10 ** 5)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(5.76, abs=0.05)
        assert estimate_covering_exponent(LogOverN(1.0), (10, 10 ** 4)) < got

    def test_exact_prefix_sums(self):
        for L in (Harmonic(0.7), LogOverN(0.9), PowerLaw(1.0, 0.4)):
            ns = np.array([1.0, 2.0, 17.0, 1000.0])
            direct = np.cumsum(L.ell(np.arange(1, 1001, dtype=float)))
            got = L.partial_sums(ns)
            want = direct[[0, 1, 16, 999]]
            assert np.allclose(got, want, rtol=1e-12)


class TestBlocks:
    def test_definition(self):
        L2 = block_sequence(Harmonic(1.0), Schedule((2, 4)))
        assert L2.ell(3) == 0.25 and L2.ell(4) == 0.25
        assert L2.ell(1) == 0.5 and L2.ell(2) == 0.5

    def test_block_end_equals_base(self):
        L = LogOverN(0.7)
        sched = Schedule((5, 30, 200))
        L2 = block_sequence(L, sched)
        for nk in sched.indices:
            assert L2.ell(nk) == L.ell(nk)

    def test_blockwise_sum_identity(self):
        L = Harmonic(1.0)
        sched = Schedule((2, 4, 9, 33))
        L2 = block_sequence(L, sched)
        idx = np.array(sched.indices, dtype=float)
        prev = np.concatenate(([0.0], idx[:-1]))
        want = np.cumsum((idx - prev) * L.ell(idx))
        got = L2.partial_sums(idx)
        assert np.allclose(got, want, rtol=1e-15)
        # and against brute-force term-by-term evaluation
        brute = np.cumsum(L2.ell(np.arange(1, 34, dtype=float)))
        assert np.allclose(got, brute[idx.astype(int) - 1], rtol=1e-12)

    def test_shrinks_lengths_pointwise(self):
        L = Harmonic(0.9)
        L2 = block_sequence(L, Schedule((3, 10, 50, 400)))
        ns = np.arange(1, 500, dtype=float)
        assert np.all(L2.ell(ns) <= L.ell(ns) + 1e-15)

    def test_beyond_schedule_falls_back(self):
        L = Harmonic(1.0)
        L2 = block_sequence(L, Schedule((2, 4)))
        assert L2.ell(10) == L.ell(10)
        got = L2.partial_sums(np.array([6.0]))
        want = 1.0 + 0.5 + L.ell(5) + L.ell(6)  # blocks (0,2],(2,4] then base
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("chunk", [7, 16, 1000])
    def test_beyond_schedule_sums_bitwise_as_two_base_sums(self, monkeypatch, chunk):
        # one base prefix sum to n_K and past it gives the floats of one sum
        # to n_K plus one sum past it, across chunk breaks
        monkeypatch.setattr(lengths, "_CHUNK", chunk)
        base = LogOverN(0.7)
        L2 = block_sequence(base, Schedule((5, 30, 200)))
        ns = np.array([3.0, 30.0, 201.0, 207.0, 223.0, 224.0, 225.0, 480.0, 1001.0])
        idx = np.array(L2.schedule.indices, dtype=float)
        got = L2.partial_sums(ns)
        past = ns > idx[-1]
        two_sums = lengths.LengthSequence._partial_sums(base, ns[past])
        at_end = lengths.LengthSequence._partial_sums(base, idx[-1:])[0]
        # the closed form at n_K is the block total
        want = L2.partial_sums(idx[-1]) + (two_sums - at_end)
        assert past.sum() == 7 and got[past].tobytes() == want.tobytes()

    def test_schedule_validation(self):
        with refused("indices"):
            Schedule((1, 5))
        with refused("indices", "must be an integer, got 2.5"):
            Schedule((2.5, 10))
        with refused("indices", "must be an integer, got True"):
            Schedule((2, True))
        assert Schedule(np.array([2, 10])).indices == (2, 10)
        with refused("indices"):
            Schedule((5, 5))
        with refused("indices"):
            Schedule(())


class TestChooseSchedule:
    def test_single_block(self):
        assert choose_schedule(Harmonic(1.0), 0.5, 1).indices == (2,)

    def test_log_rule_small_sum(self):
        L = LogOverN(0.5)
        sched = choose_schedule(L, 0.9, 4)
        total = rare_block_sum(L, sched, 0.9)
        # direct summation oracle
        direct = sum(prev * L.ell(nk) ** 0.9 for prev, nk in
                     zip((0,) + sched.indices[:-1], sched.indices))
        assert total == pytest.approx(direct, rel=1e-12)
        assert total < 1.0

    def test_per_term_margins(self):
        # harmonic lengths force n_k ~ n_{k-1}^2 growth, so the 1e15 index
        # cap supports four blocks at alpha = 0.5
        L = Harmonic(1.0)
        sched = choose_schedule(L, 0.5, 4)
        for k, (prev, nk) in enumerate(zip((0,) + sched.indices[:-1], sched.indices), start=1):
            assert prev * L.ell(nk) ** 0.5 <= 2.0 ** -k + 1e-12

    def test_infeasible_raises_with_diagnostic(self):
        with pytest.raises(ScheduleError, match="n_6"):
            choose_schedule(LogOverN(0.9), 0.9, 6)

    def test_alpha_validation(self):
        with refused("alpha"):
            choose_schedule(Harmonic(1.0), 1.5, 3)

    @pytest.mark.parametrize("K", [True, 2.5, 2.0])
    def test_k_must_be_an_integer(self, K):
        with refused("k", f"must be an integer, got {K}"):
            choose_schedule(Harmonic(1.0), 0.5, K)

    def test_numpy_k(self):
        assert choose_schedule(Harmonic(1.0), 0.5, np.int64(2)) == choose_schedule(
            Harmonic(1.0), 0.5, 2)

    def test_table_estimates_delta_up_to_its_last_row(self):
        # 2000 rows of 0.9 / sqrt(n): delta is estimated over [3, 2000]
        table = TableSequence(tuple(0.9 * np.arange(1, 2001) ** -0.5))
        assert choose_schedule(table, 0.9, 2).indices == (2, 83)
        # a third block would need an index past the table
        with refused("lengths", "defined only up to n=2000"):
            choose_schedule(table, 0.9, 3)

    def test_table_needs_four_rows(self):
        with refused("lengths", "at least 4 rows, got 3"):
            choose_schedule(TableSequence((0.5, 0.25, 0.125)), 0.9, 1)
        assert choose_schedule(TableSequence((0.5, 0.25, 0.125, 0.0625)), 0.9, 1).indices == (2,)


class TestCoveringSeries:
    def test_fast_decay_convergent(self):
        # terms ~ n^(beta - c d) / (c ln n)^beta = n^-1.5 / (5 ln n)
        res = covering_series(LogOverN(5.0), beta=1.0, d=0.5, N=10 ** 6)
        assert res.verdict == "convergent"

    def test_slow_decay_divergent(self):
        # c d - beta = 0.5 <= 1
        res = covering_series(LogOverN(3.0), beta=1.0, d=0.5, N=10 ** 6)
        assert res.verdict == "divergent"

    def test_constant_terms_divergent(self):
        # harmonic lengths with beta = 0: terms are exp(-c d), constant
        res = covering_series(Harmonic(0.8), beta=0.0, d=0.5, N=10 ** 5)
        assert res.verdict == "divergent"
        assert res.term_slope == pytest.approx(0.0, abs=1e-6)

    def test_partial_sums_exact(self):
        L = LogOverN(2.0)
        res = covering_series(L, beta=1.0, d=0.5, N=1000)
        ns = np.arange(1, 1001, dtype=float)
        ell = L.ell(ns)
        terms = (1.0 / ell) * np.exp(-ns * 0.5 * ell)
        direct = np.cumsum(terms)
        for cp, ps in zip(res.checkpoints, res.partial_sums):
            assert ps == pytest.approx(direct[cp - 1], rel=1e-10)

    def test_parameter_validation(self):
        with refused("d"):
            covering_series(Harmonic(1.0), beta=1.0, d=1.5, N=100)
        with refused("beta"):
            covering_series(Harmonic(1.0), beta=-1.0, d=0.5, N=100)

    @pytest.mark.parametrize("N", [1000.7, 1000.0, True])
    def test_terms_must_be_an_integer(self, N):
        # checked before any cast, so 1000.7 is not summed to 1000
        with refused("n", f"must be an integer, got {N}"):
            covering_series(LogOverN(1.0), beta=0.0, d=0.5, N=N)
        with refused("n", f"must be an integer, got {N}"):
            shepp_series(LogOverN(1.0), N)

    def test_numpy_terms(self):
        res = covering_series(LogOverN(1.0), beta=0.0, d=0.5, N=np.int64(1000))
        assert res == covering_series(LogOverN(1.0), beta=0.0, d=0.5, N=1000)
        assert type(res.n_terms) is int


class TestSeriesResultEquality:
    def test_equal_runs_compare_equal(self):
        a = shepp_series(Harmonic(1.5), 1000)
        assert a == shepp_series(Harmonic(1.5), 1000)
        assert not a != shepp_series(Harmonic(1.5), 1000)

    def test_a_changed_partial_sum_compares_unequal(self):
        a = shepp_series(Harmonic(1.5), 1000)
        sums = a.partial_sums.copy()
        sums[-1] += 1.0
        assert a != replace(a, partial_sums=sums)
        assert a != shepp_series(Harmonic(1.5), 1001)
        assert a != covering_series(Harmonic(1.5), beta=0.0, d=0.5, N=1000)


class TestSheppSeries:
    def test_subcritical_convergent(self):
        assert shepp_series(Harmonic(0.5), 10 ** 6).verdict == "convergent"

    def test_critical_divergent(self):
        assert shepp_series(Harmonic(1.0), 10 ** 6).verdict == "divergent"

    def test_supercritical_divergent(self):
        assert shepp_series(Harmonic(1.5), 10 ** 6).verdict == "divergent"

    def test_terms_match_theory(self):
        # term_n = exp(sum ell) / n^2 ~ e^(c gamma) n^(c-2) for harmonic(c)
        res = shepp_series(Harmonic(1.5), 10 ** 5)
        assert res.term_slope == pytest.approx(-0.5, abs=0.01)

    def test_log_space_guard(self):
        # prefix sums reach ~240 by n = 1e6; linear-space terms would overflow
        res = shepp_series(LogOverN(2.5), 10 ** 5)
        assert res.verdict == "divergent"
        assert np.isfinite(res.log_partial_sums).all()


class TestSeriesStreaming:
    """The series are accumulated chunk by chunk; chunking must not show."""

    @pytest.mark.parametrize("N", [10, 13, 14, 15, 49, 50])
    def test_shepp_prefix_matches_one_shot_cumsum(self, monkeypatch, N):
        # with chunks of 7, N = 14 and 49 end on a chunk break, 13, 15, 50 next to one
        monkeypatch.setattr(lengths, "_CHUNK", 7)
        rule = LogOverN(1.0)
        prefix = np.cumsum(rule._ell(np.arange(1, N + 1, dtype=np.float64)))

        def one_shot(ns):
            return prefix[ns.astype(np.int64) - 1] - 2.0 * np.log(ns)

        ref = lengths._scan_series(one_shot, N)
        got = shepp_series(rule, N)
        assert got.log_partial_sums.tobytes() == ref.log_partial_sums.tobytes()
        assert np.float64(got.tail_fraction).tobytes() == \
            np.float64(ref.tail_fraction).tobytes()
        assert np.float64(got.term_slope).tobytes() == \
            np.float64(ref.term_slope).tobytes()

    def test_covering_slope_fits_terms_at_the_fit_points(self):
        # the 40 fit points span three chunks of the default size
        N, beta, d = 2_500_001, 1.0, 0.5
        rule = LogOverN(1.5)
        fit_ns = lengths._log_sample(N // 10, N, 40).astype(np.float64)
        ell = rule._ell(fit_ns)
        direct = -beta * np.log(ell) - fit_ns * d * ell
        slope = float(np.polyfit(np.log(fit_ns), direct, 1)[0])
        assert covering_series(rule, beta, d, N).term_slope == slope

    def test_log_terms_called_once_per_chunk_in_order(self, monkeypatch):
        monkeypatch.setattr(lengths, "_CHUNK", 7)
        seen = []

        def log_terms(ns):
            seen.append((ns[0], ns[-1]))
            return -2.0 * np.log(ns)

        lengths._scan_series(log_terms, 20)
        assert seen == [(1, 7), (8, 14), (15, 20)]

    def test_shepp_memory_is_flat_in_n(self, monkeypatch):
        monkeypatch.setattr(lengths, "_CHUNK", 10_000)
        rule = LogOverN(1.0)
        shepp_series(rule, 50_000)  # warm-up: first-call allocations
        peaks = []
        for N in (50_000, 200_000):
            tracemalloc.start()
            try:
                shepp_series(rule, N)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


def _per_chunk_scan(log_terms, N, chunk):
    """One logaddexp.accumulate per chunk of `chunk` indices: the loop that
    the sub-blocks of _scan_series must reproduce bit for bit."""
    marks = lengths._log_sample(1, N, 80)
    n_tail_lo = max(2, N // 10)
    fit_ns = lengths._log_sample(n_tail_lo, N, 40)
    fit_logs = np.empty(fit_ns.size, dtype=np.float64)
    log_sums = np.empty(marks.size, dtype=np.float64)
    running = -math.inf
    filled = 0
    for start in range(1, N + 1, chunk):
        stop = min(start + chunk - 1, N)
        logs = log_terms(np.arange(start, stop + 1, dtype=np.float64))
        csum = np.logaddexp.accumulate(logs)
        while filled < marks.size and marks[filled] <= stop:
            log_sums[filled] = np.logaddexp(running, csum[int(marks[filled]) - start])
            filled += 1
        here = (fit_ns >= start) & (fit_ns <= stop)
        fit_logs[here] = logs[fit_ns[here] - start]
        running = float(np.logaddexp(running, csum[-1]))
    i_lo = min(int(np.searchsorted(marks, n_tail_lo)), marks.size - 2)
    tail_fraction = float(-np.expm1(log_sums[i_lo] - log_sums[-1]))
    good = np.isfinite(fit_logs)
    slope = float(np.polyfit(np.log(fit_ns[good]), fit_logs[good], 1)[0])
    return log_sums, tail_fraction, slope


def _covering_terms(rule, beta, d):
    def log_terms(ns):
        ell = rule._ell(ns)
        return -beta * np.log(ell) - ns * d * ell
    return log_terms


def _shepp_terms(rule):
    carry = 0.0

    def log_terms(ns):
        nonlocal carry
        prefix = np.cumsum(np.concatenate(([carry], rule._ell(ns))))[1:]
        carry = float(prefix[-1])
        return prefix - 2.0 * np.log(ns)
    return log_terms


class TestSeriesSubBlocks:
    """A series walks each chunk in sub-blocks, each seeded with the chunk's
    running value; the bytes must be those of one accumulate per chunk."""

    @staticmethod
    def _assert_same(got, ref):
        log_sums, tail_fraction, slope = ref
        assert got.log_partial_sums.tobytes() == log_sums.tobytes()
        assert np.float64(got.tail_fraction).tobytes() == np.float64(tail_fraction).tobytes()
        assert np.float64(got.term_slope).tobytes() == np.float64(slope).tobytes()

    @pytest.mark.parametrize("sub, chunk", [(3, 21), (7, 7)])
    @pytest.mark.parametrize("N", [10, 20, 21, 22, 49, 63, 64])
    @pytest.mark.parametrize("rule", [LogOverN(1.0), Harmonic(0.5)], ids=repr)
    def test_sub_blocks_match_per_chunk_accumulate(self, monkeypatch, sub, chunk, N, rule):
        monkeypatch.setattr(lengths, "_SUB", sub)
        monkeypatch.setattr(lengths, "_CHUNK", chunk)
        self._assert_same(covering_series(rule, 0.5, 0.6, N),
                          _per_chunk_scan(_covering_terms(rule, 0.5, 0.6), N, chunk))
        self._assert_same(shepp_series(rule, N),
                          _per_chunk_scan(_shepp_terms(rule), N, chunk))

    def test_default_sizes_match_per_chunk_accumulate(self):
        # two chunk breaks and a ragged last sub-block at the default sizes
        N, rule = 2_062_501, LogOverN(1.0)
        assert lengths._CHUNK % lengths._SUB == 0 and lengths._SUB < lengths._CHUNK
        self._assert_same(covering_series(rule, 0.0, 0.5, N),
                          _per_chunk_scan(_covering_terms(rule, 0.0, 0.5), N, lengths._CHUNK))
        self._assert_same(shepp_series(rule, N),
                          _per_chunk_scan(_shepp_terms(rule), N, lengths._CHUNK))

    def test_log_terms_called_once_per_sub_block_in_order(self, monkeypatch):
        monkeypatch.setattr(lengths, "_SUB", 3)
        monkeypatch.setattr(lengths, "_CHUNK", 6)
        seen = []

        def log_terms(ns):
            seen.append((ns[0], ns[-1]))
            return -2.0 * np.log(ns)

        lengths._scan_series(log_terms, 14)
        assert seen == [(1, 3), (4, 6), (7, 9), (10, 12), (13, 14)]

    def test_sub_block_must_divide_the_chunk(self, monkeypatch):
        monkeypatch.setattr(lengths, "_SUB", 4)
        monkeypatch.setattr(lengths, "_CHUNK", 10)
        with pytest.raises(AssertionError, match="straddle"):
            shepp_series(LogOverN(1.0), 20)

    @pytest.mark.parametrize("series", ["covering", "shepp"])
    def test_peak_memory_is_a_few_sub_blocks(self, series):
        # one accumulate per 1e6-term chunk held about 48 MB of temporaries
        rule = LogOverN(1.0)
        run = {"covering": lambda N: covering_series(rule, 0.0, 0.5, N),
               "shepp": lambda N: shepp_series(rule, N)}[series]
        run(1000)  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            run(2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20


class _CountingRule(LogOverN):
    calls = 0

    def _ell(self, ns):
        type(self).calls += 1
        return super()._ell(ns)


class TestTermCap:
    """One cap on N for every term-by-term sum, checked before any work."""

    @pytest.mark.parametrize("N", [lengths.MAX_TERMS + 1, 10 ** 13])
    def test_series_refuse_before_any_term(self, N):
        rule = _CountingRule(1.0)
        with refused("n", "too large"):
            covering_series(rule, 0.0, 0.5, N)
        with refused("n", "too large"):
            shepp_series(rule, N)
        assert _CountingRule.calls == 0

    def test_prefix_sums_share_the_cap(self):
        rule = _CountingRule(1.0)
        with refused("ns", "too large"):
            rule.partial_sums(lengths.MAX_TERMS + 1)
        assert _CountingRule.calls == 0

    def test_shepp_lower_bound_is_the_scan_bound(self):
        with refused("n", "needs N >= 10"):
            shepp_series(Harmonic(1.0), 5)


class TestParse:
    def test_rules(self):
        assert isinstance(parse_lengths("logn:2.5"), LogOverN)
        assert isinstance(parse_lengths("harmonic:0.5"), Harmonic)
        assert isinstance(parse_lengths("power:1:0.5"), PowerLaw)

    def test_table_file(self, tmp_path):
        path = tmp_path / "lens.csv"
        path.write_text("0.5\n0.25\n0.125\n")
        L = parse_lengths(f"table:{path}")
        assert isinstance(L, TableSequence)
        assert L.ell(2) == 0.25

    def test_errors(self):
        for bad in ("logn:x", "nope:1", "table:/missing.csv"):
            with refused("lengths"):
                parse_lengths(bad)
