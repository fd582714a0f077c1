import contextlib
import csv
import hashlib
import io
import json
import tracemalloc
import warnings
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels
import reference_records

from poakit import core as core_module, forecast as forecast_module
from poakit.core import DataFormatError, NumericError, TimeSeries, ValidationError
from poakit.forecast import (
    FittedForecaster,
    ForecastCube,
    ForecasterSpec,
    ForecastScore,
    WindowConfig,
    default_member_specs,
    evaluate_members,
    fit,
    forecast_ensembles,
    ingest_external_forecasts,
    make_windows,
    predict_batch,
    select_top_k,
    write_forecast_records,
)


RECORD_FIELDS = ("window_id", "origin", "member_id", "step", "variable", "value")


def series(values) -> TimeSeries:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return TimeSeries(np.arange(len(values)), values)


class TestMakeWindows:
    def test_single_fit(self):
        s = series(np.arange(15))
        windows = make_windows(s, WindowConfig(10, 5), with_targets=True)
        assert len(windows) == 1
        w = windows[0]
        assert w.window_id == 0
        assert w.origin == 9
        assert np.array_equal(w.input[:, 0], np.arange(10))
        assert np.array_equal(w.target[:, 0], np.arange(10, 15))

    def test_inference_window_geometry(self):
        # third window (id 2) has origin 11 and covers future steps 12..16
        s = series(np.arange(16))
        windows = make_windows(s, WindowConfig(10, 5), with_targets=False)
        assert [w.origin for w in windows] == list(range(9, 16))
        w2 = windows[2]
        assert w2.origin == 11
        horizon = [w2.origin + step for step in range(1, 6)]
        assert horizon == [12, 13, 14, 15, 16]
        # with targets, no window with id 2 exists
        with_targets = make_windows(s, WindowConfig(10, 5), with_targets=True)
        assert len(with_targets) == 2

    def test_too_short_for_targets(self):
        s = series(np.arange(100))
        assert len(make_windows(s, WindowConfig(100, 24), with_targets=False)) == 1
        with pytest.raises(ValidationError, match="124"):
            make_windows(s, WindowConfig(100, 24), with_targets=True)

    def test_too_short_for_input(self):
        with pytest.raises(ValidationError, match="insufficient length"):
            make_windows(series(np.arange(5)), WindowConfig(10, 2), with_targets=False)

    def test_count_formula_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            T = int(rng.integers(5, 60))
            L_x = int(rng.integers(1, 10))
            L_y = int(rng.integers(1, 10))
            stride = int(rng.integers(1, 4))
            s = series(rng.normal(size=T))
            if T < L_x + L_y:
                continue
            windows = make_windows(s, WindowConfig(L_x, L_y, stride), with_targets=True)
            expected = (T - L_x - L_y) // stride + 1
            assert len(windows) == expected
            # enumeration: origins valid iff input and target both fit
            origins = [
                o
                for o in range(L_x - 1, T, stride)
                if o + L_y <= T - 1
            ]
            assert [w.window_id for w in windows] == list(range(len(origins)))
            assert [w.origin for w in windows] == origins


class TestForecasterSpec:
    def test_parse_round_trips(self):
        for text in (
            "persistence",
            "seasonal_naive:24",
            "moving_average:12",
            "ar_ols:4",
            "exp_smoothing:0.3",
            "holt_linear:0.3:0.1",
        ):
            spec = ForecasterSpec.parse(text)
            assert spec.member_id

    def test_rejects_bad_kind(self):
        with pytest.raises(ValidationError):
            ForecasterSpec.parse("lstm:3")

    @pytest.mark.parametrize("text, message", [
        ("lstm:3", "unknown forecaster kind in 'lstm:3'"),
        ("ar_ols", "cannot parse forecaster spec 'ar_ols': expected ar_ols:order"),
        ("seasonal_naive", "cannot parse forecaster spec 'seasonal_naive': "
                           "expected seasonal_naive:period"),
        ("ar_ols:x", "cannot parse forecaster spec 'ar_ols:x': "
                     "invalid literal for int() with base 10: 'x'"),
        ("ar_ols:0", "cannot parse forecaster spec 'ar_ols:0': ar_ols requires order >= 1"),
        ("holt_linear:0.3", "cannot parse forecaster spec 'holt_linear:0.3': "
                            "expected holt_linear:alpha:beta"),
        # each below used to parse: the extra part was dropped, and int()/float()
        # read '1_0' as 10, Arabic-Indic 24 as 24 and '0_3' as 3.0
        ("ar_ols:4:7", "cannot parse forecaster spec 'ar_ols:4:7': expected ar_ols:order"),
        ("persistence:5", "cannot parse forecaster spec 'persistence:5': expected persistence"),
        ("holt_linear:0.3:0.1:9", "cannot parse forecaster spec 'holt_linear:0.3:0.1:9': "
                                  "expected holt_linear:alpha:beta"),
        ("ar_ols:1_0", "cannot parse forecaster spec 'ar_ols:1_0': "
                       "not an ASCII number without '_': '1_0'"),
        ("seasonal_naive:\u0662\u0664",
         "cannot parse forecaster spec 'seasonal_naive:\u0662\u0664': "
         "not an ASCII number without '_': '\u0662\u0664'"),
        ("exp_smoothing:0_3", "cannot parse forecaster spec 'exp_smoothing:0_3': "
                              "not an ASCII number without '_': '0_3'"),
    ])
    def test_parse_messages(self, text, message):
        with pytest.raises(ValidationError) as err:
            ForecasterSpec.parse(text)
        assert str(err.value) == message

    def test_parse_reads_each_kinds_parameters(self):
        assert ForecasterSpec.parse(" holt_linear:0.3:0.1 ") == ForecasterSpec(
            "holt_linear", alpha=0.3, beta=0.1)
        assert ForecasterSpec.parse("ar_ols:04") == ForecasterSpec("ar_ols", order=4)
        assert ForecasterSpec.parse("seasonal_naive:24").period == 24

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            ForecasterSpec("exp_smoothing", alpha=0.0)
        with pytest.raises(ValidationError):
            ForecasterSpec("seasonal_naive", period=0)
        with pytest.raises(ValidationError):
            ForecasterSpec("persistence", order=2)


class TestFitPredict:
    def test_persistence_repeats_last_row(self):
        train = series(np.column_stack([np.arange(10.0), -np.arange(10.0)]))
        model = fit(ForecasterSpec("persistence"), train)
        window = np.column_stack([np.arange(10.0), -np.arange(10.0)])
        window[-1] = [3.0, -1.0]
        out = predict_batch(model, window[None], horizon=4)[0]
        assert out.shape == (4, 2)
        assert np.all(out == [3.0, -1.0])

    def test_seasonal_naive_cycles_tail(self):
        model = fit(ForecasterSpec("seasonal_naive", period=2), series(np.arange(10)))
        window = np.arange(10.0)[:, None]
        out = predict_batch(model, window[None], horizon=5)[0][:, 0]
        # tail is [..., 8, 9] -> repeats 8, 9, 8, 9, 8
        assert np.array_equal(out, [8, 9, 8, 9, 8])

    def test_ar_ols_recovers_coefficient(self):
        x = np.empty(50)
        x[0] = 8.0
        for t in range(1, 50):
            x[t] = 0.5 * x[t - 1]
        model = fit(ForecasterSpec("ar_ols", order=1), series(x))
        assert model.coefficients[1, 0] == pytest.approx(0.5, abs=1e-9)
        assert model.coefficients[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert model.fit_report == ()

    def test_ar_ols_hand_recursion(self):
        x = np.empty(50)
        x[0] = 8.0
        for t in range(1, 50):
            x[t] = 0.5 * x[t - 1]
        model = fit(ForecasterSpec("ar_ols", order=1), series(x))
        window = np.ones((10, 1))
        window[-1, 0] = 8.0
        out = predict_batch(model, window[None], horizon=3)[0][:, 0]
        assert out == pytest.approx([4.0, 2.0, 1.0], abs=1e-8)

    def test_ar_ols_singular_falls_back_to_persistence(self):
        model = fit(ForecasterSpec("ar_ols", order=2), series(np.ones(30)))
        assert len(model.fit_report) == 1
        assert "fell back" in model.fit_report[0]
        window = np.full((5, 1), 7.0)
        out = predict_batch(model, window[None], horizon=3)[0][:, 0]
        assert np.array_equal(out, [7.0, 7.0, 7.0])

    def test_exp_smoothing_alpha_one_is_last_observation(self):
        model = fit(ForecasterSpec("exp_smoothing", alpha=1.0), series(np.arange(10)))
        window = np.arange(10.0)[:, None]
        out = predict_batch(model, window[None], horizon=3)[0][:, 0]
        assert np.array_equal(out, [9.0, 9.0, 9.0])

    def test_exp_smoothing_matches_scalar_recursion(self):
        rng = np.random.default_rng(0)
        window = rng.normal(size=(8, 1))
        model = fit(ForecasterSpec("exp_smoothing", alpha=0.4), series(window))
        level = window[0, 0]
        for t in range(1, 8):
            level = 0.4 * window[t, 0] + 0.6 * level
        out = predict_batch(model, window[None], horizon=2)[0][:, 0]
        assert out == pytest.approx([level, level], abs=1e-12)

    def test_holt_linear_extends_exact_line(self):
        window = (2.0 * np.arange(12) + 1.0)[:, None]
        model = fit(ForecasterSpec("holt_linear", alpha=0.5, beta=0.5), series(window))
        out = predict_batch(model, window[None], horizon=3)[0][:, 0]
        assert out == pytest.approx([25.0, 27.0, 29.0], abs=1e-9)

    def test_moving_average_recursion(self):
        window = np.array([1.0, 2.0, 3.0, 4.0])[:, None]
        model = fit(ForecasterSpec("moving_average", width=2), series(window))
        out = predict_batch(model, window[None], horizon=3)[0][:, 0]
        # buffer [3, 4] -> 3.5; [4, 3.5] -> 3.75; [3.5, 3.75] -> 3.625
        assert out == pytest.approx([3.5, 3.75, 3.625], abs=1e-12)

    def test_fit_rejects_short_series(self):
        with pytest.raises(ValidationError, match="too short"):
            fit(ForecasterSpec("ar_ols", order=5), series(np.arange(8)))

    def test_predict_rejects_non_finite(self):
        model = fit(ForecasterSpec("persistence"), series(np.arange(10)))
        window = np.ones((10, 1))
        window[3, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            predict_batch(model, window[None], horizon=2)[0]

    def test_predict_batch_matches_single(self):
        rng = np.random.default_rng(5)
        train = series(rng.normal(size=(80, 2)))
        inputs = rng.normal(size=(6, 20, 2))
        for spec in default_member_specs():
            if spec.kind == "seasonal_naive":
                spec = ForecasterSpec("seasonal_naive", period=5)
            model = fit(spec, train)
            batched = predict_batch(model, inputs, horizon=7)
            for i in range(6):
                single = predict_batch(model, inputs[i:i + 1], horizon=7)[0]
                assert np.allclose(batched[i], single, atol=1e-12)


@st.composite
def kernel_inputs(draw, lag_name):
    """W x L_x x c inputs and a horizon, with the moving-average width or AR
    order (``lag``) anywhere from 1 to past the horizon."""
    W, c, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 10))
    lag = draw(st.sampled_from([1, 2, horizon, horizon + 1, horizon + 9]))
    L_x = lag + draw(st.integers(0, 3))
    values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
    inputs = draw(hnp.arrays(np.float64, (W, L_x, c), elements=values))
    spec = ForecasterSpec("moving_average" if lag_name == "width" else "ar_ols", **{lag_name: lag})
    coefficients = None
    if lag_name == "order":
        coefficients = draw(hnp.arrays(np.float64, (lag + 1, c), elements=st.floats(-1.5, 1.5)))
    return FittedForecaster(spec, c, coefficients), inputs, horizon


class TestBufferKernelsMatchConcatenate:
    """The one-buffer recursions against the per-step concatenate loops they
    replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=kernel_inputs("width"))
    def test_moving_average(self, case):
        model, inputs, horizon = case
        expected = reference_kernels.moving_average(inputs, model.spec.width, horizon)
        assert_bits_equal(predict_batch(model, inputs, horizon), expected)

    @settings(max_examples=150, deadline=None)
    @given(case=kernel_inputs("order"))
    def test_ar_ols(self, case):
        model, inputs, horizon = case
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging recursion
            got = predict_batch(model, inputs, horizon)
            expected = reference_kernels.ar_ols(inputs, model.coefficients, horizon)
        assert_bits_equal(got, expected)

    @pytest.mark.parametrize("c", [1, 3])
    def test_benchmark_sized_batch(self, c):
        rng = np.random.default_rng(c)
        inputs = rng.normal(size=(1200, 100, c))
        ma = FittedForecaster(ForecasterSpec("moving_average", width=12), c)
        ar = FittedForecaster(ForecasterSpec("ar_ols", order=4), c, 0.3 * rng.normal(size=(5, c)))
        assert_bits_equal(predict_batch(ma, inputs, 24),
                          reference_kernels.moving_average(inputs, 12, 24))
        assert_bits_equal(predict_batch(ar, inputs, 24),
                          reference_kernels.ar_ols(inputs, ar.coefficients, 24))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1, 3])
    def test_moving_average_of_huge_windows(self, c):
        # the window sums used to overflow: a mean of 1.6e308 came out inf
        rng = np.random.default_rng(c)
        inputs = rng.normal(size=(3, 40, c))
        inputs[1] = 1.6e308
        inputs[2, ::2], inputs[2, 1::2] = 1.6e308, -1.6e308
        got = predict_batch(FittedForecaster(ForecasterSpec("moving_average", width=12), c),
                            inputs, 24)
        assert np.allclose(got[1], 1.6e308, rtol=1e-15, atol=0)
        assert_bits_equal(got[0], reference_kernels.moving_average(inputs[:1], 12, 24)[0])
        assert_bits_equal(got[1:], reference_kernels.moving_average(inputs[1:] / 16, 12, 24) * 16)


class TestEvaluateMembers:
    def test_perfect_predictions(self):
        targets = np.random.default_rng(1).normal(size=(3, 4, 2))
        scores = evaluate_members({"a": targets.copy()}, targets)
        assert scores[0].mse == 0.0
        assert scores[0].mae == 0.0

    def test_constant_error(self):
        targets = np.zeros((3, 4, 2))
        scores = evaluate_members({"a": targets + 1.0}, targets)
        assert scores[0].mse == pytest.approx(1.0)
        assert scores[0].mae == pytest.approx(1.0)

    def test_matches_flat_loop_oracle(self):
        rng = np.random.default_rng(2)
        targets = rng.normal(size=(3, 5, 2))
        preds = rng.normal(size=(3, 5, 2))
        scores = evaluate_members({"m": preds}, targets)
        se = ae = 0.0
        n = 0
        for w in range(3):
            for i in range(5):
                for v in range(2):
                    err = preds[w, i, v] - targets[w, i, v]
                    se += err * err
                    ae += abs(err)
                    n += 1
        assert scores[0].mse == pytest.approx(se / n, abs=1e-12)
        assert scores[0].mae == pytest.approx(ae / n, abs=1e-12)

    def test_window_permutation_invariant(self):
        rng = np.random.default_rng(3)
        targets = rng.normal(size=(6, 4, 2))
        preds = rng.normal(size=(6, 4, 2))
        base = evaluate_members({"m": preds}, targets)[0]
        perm = rng.permutation(6)
        shuffled = evaluate_members({"m": preds[perm]}, targets[perm])[0]
        assert shuffled.mse == pytest.approx(base.mse, abs=1e-12)
        assert shuffled.mae == pytest.approx(base.mae, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            evaluate_members({"a": np.zeros((0, 2, 1))}, np.zeros((0, 2, 1)))

    @pytest.mark.parametrize("preds, message", [
        ({"c": 1e300, "b": 1e300, "a": 1.0}, "member 'b': mse is not finite (inf)"),
        ({"b": np.nan, "a": 1.0}, "member 'b': mse is not finite (nan)"),
    ], ids=["overflow", "nan"])
    def test_first_non_finite_score_in_member_order_raises(self, preds, message):
        # overflowed errors used to rank every member inf, and the top-k fell
        # back to id order with only numpy's overflow warning
        targets = np.zeros((2, 3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError) as err:
                evaluate_members({m: np.full(targets.shape, v) for m, v in preds.items()},
                                 targets)
        assert str(err.value) == message


class TestSelectTopK:
    def test_picks_smallest(self):
        scores = [
            ForecastScore("A", 0.1, 0.1),
            ForecastScore("B", 0.3, 0.3),
            ForecastScore("C", 0.2, 0.2),
        ]
        assert select_top_k(scores, 2, "mse") == ["A", "C"]

    def test_tie_break_lexicographic(self):
        scores = [ForecastScore(m, 1.0, 1.0) for m in ("d", "b", "c", "a")]
        assert select_top_k(scores, 2, "mse") == ["a", "b"]

    def test_twelve_member_spread(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0001, 800.0, size=12)
        scores = [ForecastScore(f"m{i:02d}", float(v), float(v)) for i, v in enumerate(values)]
        picked = select_top_k(scores, 5, "mse")
        expected = [s.member_id for s in sorted(scores, key=lambda s: (s.mse, s.member_id))][:5]
        assert picked == expected

    def test_k_bounds(self):
        scores = [ForecastScore("a", 1, 1), ForecastScore("b", 2, 2)]
        with pytest.raises(ValidationError):
            select_top_k(scores, 1)
        with pytest.raises(ValidationError):
            select_top_k(scores, 3)

    def test_rejects_duplicates(self):
        scores = [ForecastScore("a", 1, 1), ForecastScore("a", 2, 2)]
        with pytest.raises(ValidationError):
            select_top_k(scores, 2)


class TestForecastCube:
    @pytest.mark.parametrize("preds,wids,ids,message", [
        (np.zeros((2, 3, 1)), [7, 8], ("a", "b"), "ensemble predictions must be W x M x L_y x c"),
        (np.zeros((2, 2, 3, 1)), [7, 8], ("a",), "one member_id per prediction slab required"),
        (np.zeros((2, 2, 3, 1)), [7, 8], ["a", "a"], r"duplicate member_ids: \['a', 'a'\]"),
        (np.full((2, 2, 3, 1), np.nan), [7, 8], ("a", "b"),
         "non-finite prediction in window 7, member 'a'"),
        (np.zeros((2, 2, 3, 1)), [7, 8], ("a", "a"), r"duplicate member_ids: \('a', 'a'\)"),
        (np.where(np.arange(12).reshape(2, 2, 3, 1) == 11, np.inf, 0.0), [7, 8], ("a", "b"),
         "non-finite prediction in window 8, member 'b'"),
        (np.zeros((2, 2, 3, 1)), [8, 7], ("a", "b"),
         "window ids must be strictly increasing: 8 followed by 7"),
        (np.zeros((3, 2, 3, 1)), [6, 7, 7], ("a", "b"),
         "window ids must be strictly increasing: 7 followed by 7"),
        (np.zeros((2, 2, 3, 1)), [7], ("a", "b"),
         "one window id and origin per prediction window required"),
        (np.zeros((2, 2, 3, 1)), [7.0, 8.0], ("a", "b"),
         "window_ids must hold integers, got dtype float64"),
    ], ids=["ndim", "ids", "duplicates", "non-finite", "duplicate-tuple", "inf",
            "decreasing-window-ids", "duplicate-window-ids", "window-count", "float-window-ids"])
    def test_check_messages(self, preds, wids, ids, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ForecastCube(preds, wids, [9] * len(wids), ids)

    def test_non_finite_found_past_the_first_block(self):
        preds = np.zeros((50, 2, 3, 1))
        preds[37, 0, 1, 0] = np.nan
        with mock.patch.object(forecast_module, "_BLOCK_BYTES", 5 * preds[0].nbytes), \
                pytest.raises(ValidationError,
                              match="^non-finite prediction in window 137, member 'a'$"):
            ForecastCube(preds, range(100, 150), range(50), ("a", "b"))

    def test_items_are_read_only_views(self):
        preds = np.arange(24.0).reshape(3, 2, 2, 2)
        cube = ForecastCube(preds, [2, 5, 9], [11, 12, 13], ["a", "b"])
        assert len(cube) == 3
        assert [(e.window_id, e.origin, e.member_ids) for e in cube] == [
            (2, 11, ("a", "b")), (5, 12, ("a", "b")), (9, 13, ("a", "b"))]
        assert cube[-1].window_id == 9
        assert np.shares_memory(cube[1].predictions, cube.predictions)
        assert np.shares_memory(cube.predictions, preds) and preds.flags.writeable
        for array in (cube.predictions, cube[0].predictions, cube.window_ids, cube.origins):
            assert not array.flags.writeable


def reference_csv_records(ensembles) -> bytes:
    """Forecast records as ``csv.writer`` writes them, one row per cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(RECORD_FIELDS)
    for ens in sorted(ensembles, key=lambda e: e.window_id):
        M, L_y, c = ens.predictions.shape
        for m in range(M):
            for i in range(L_y):
                for v in range(c):
                    writer.writerow((ens.window_id, ens.origin, ens.member_ids[m], i + 1, v,
                                     format(float(ens.predictions[m, i, v]), ".9g")))
    return buf.getvalue().encode()


def golden_ensembles():
    """Three windows; member ids that need CSV/JSON quoting, out of name order."""
    cells = np.arange(24).reshape(3, 4, 2)
    wids = np.arange(3)[:, None, None, None]
    # exact IEEE arithmetic, so the bytes do not depend on a random stream
    preds = (cells - 11.5 + wids) / 7.0 * np.ldexp(1.0, cells * 5 % 81 - 40)
    preds[:, 0, 0, 0] = -0.0
    preds[:, 1, 0, 0] = 1e22
    preds[:, 2, 0, 0] = 123456789.5
    return ForecastCube(preds, range(3), 40 + 3 * np.arange(3), ("a,b", 'q"t', "plain"))


def sorted_by_member(ens):
    order = sorted(range(len(ens.member_ids)), key=lambda m: ens.member_ids[m])
    return tuple(ens.member_ids[m] for m in order), ens.predictions[order]


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), np.asarray(b, dtype=np.float64).view(np.int64))


def write_body(path, head, body):
    """Rewrite a record file: CSV rows through ``csv.writer``, NDJSON lines as given."""
    with open(path, "w", newline="") as fh:
        if str(path).endswith(".csv"):
            csv.writer(fh).writerows(head + body)
        else:
            fh.write("".join(line + "\n" for line in body))


def chunk_rows_patched(rows):
    """Parse records ``rows`` at a time (None: the module's own chunk size)."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(forecast_module, "_CHUNK_ROWS", rows)


def assert_ingest_matches_reference(path):
    """The package and the record-at-a-time reader agree on ``path``: the same
    error message, or the same ensembles bit for bit. The package names the
    file in every message; the reader only in some."""
    try:
        expected = ("ok", reference_records.ref_ingest(path))
    except reference_records.RecordError as exc:
        message = str(exc)
        expected = ("error", message if message.startswith(f"{path}: ") else f"{path}: {message}")
    try:
        got = ("ok", [(e.window_id, e.origin, e.member_ids, e.predictions)
                      for e in ingest_external_forecasts(path)])
    except DataFormatError as exc:
        got = ("error", str(exc))
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
    else:
        assert len(got[1]) == len(expected[1])
        for g, e in zip(got[1], expected[1]):
            assert g[:3] == e[:3]
            assert_bits_equal(g[3], e[3])


# replacement field text for CSV records, and value for NDJSON records
FIELD_EDITS = [
    ("1.5", 1.5), ("0", 0), ("-1", -1), ("", ""), ("3.0", "3"), ("x", None),
    (" 2 ", 2.0), ("+1", True), ("1_0", "x"), ("1e3", 1e3), ("a,b", "a,b"),
    ("\u0661", "\u0661"), ("9223372036854775808", 2**63),
    ("-9223372036854775809", -2**63 - 1),
]

member_ids = st.lists(
    st.text(alphabet=st.sampled_from('ab,"# {}\n\r\'_é'), max_size=5),
    min_size=1, max_size=3, unique=True,
)


@st.composite
def ensemble_lists(draw):
    members = tuple(draw(member_ids))
    L_y, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    wids = sorted(draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4,
                                unique=True)))
    origins = draw(st.lists(st.integers(-10**9, 10**9), min_size=len(wids), max_size=len(wids)))
    values = st.floats(allow_nan=False, allow_infinity=False)
    preds = draw(hnp.arrays(np.float64, (len(wids), len(members), L_y, c), elements=values))
    return ForecastCube(preds, wids, origins, members)


record_edits = st.lists(
    st.tuples(st.sampled_from(["drop", "repeat", "blank", "swap", "field"]),
              st.integers(0, 10**6), st.integers(0, len(FIELD_EDITS) - 1)),
    max_size=4,
)


def edited_file(tmp_path_factory, ensembles, ext, edits):
    """``ensembles`` written as records, then edited: records dropped,
    repeated at the end, blank lines inserted, records swapped with the last,
    fields replaced by ``FIELD_EDITS``."""
    path = tmp_path_factory.mktemp("edited") / f"fc.{ext}"
    write_forecast_records(path, ensembles)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh)) if ext == "csv" else fh.read().splitlines()
    head, body = (rows[:1], rows[1:]) if ext == "csv" else ([], rows)
    for op, i, k in edits:
        if not body:
            break
        i %= len(body)
        if op == "drop":
            del body[i]
        elif op == "repeat":
            body.append(body[i])
        elif op == "blank":
            body.insert(i, [] if ext == "csv" else "")
        elif op == "swap":
            body[i], body[-1] = body[-1], body[i]
        elif ext == "csv":
            body[i] = body[i][:k % 6] + [FIELD_EDITS[k][0]] + body[i][k % 6 + 1:]
        elif body[i]:
            record = json.loads(body[i])
            record[RECORD_FIELDS[k % 6]] = FIELD_EDITS[k][1]
            body[i] = json.dumps(record)
    write_body(path, head, body)
    return path


class TestForecastRecords:
    def _make_ensembles(self):
        rng = np.random.default_rng(6)
        return ForecastCube(rng.normal(size=(3, 2, 3, 2)), range(3), range(9, 12), ("m1", "m2"))

    @pytest.mark.parametrize("ext", ["csv", "ndjson"])
    def test_round_trip(self, tmp_path, ext):
        ensembles = self._make_ensembles()
        path = tmp_path / f"fc.{ext}"
        write_forecast_records(path, ensembles)
        loaded = ingest_external_forecasts(path)
        assert len(loaded) == 3
        for orig, back in zip(ensembles, loaded):
            assert back.window_id == orig.window_id
            assert back.origin == orig.origin
            assert back.member_ids == orig.member_ids
            assert np.allclose(back.predictions, orig.predictions, atol=1e-7)

    @pytest.mark.parametrize(
        "ext, sha256",
        [
            ("csv", "3801ec6f04bcb1f714dc15b4ff473a08e18ee3686ee9a5405fca188973d2d472"),
            ("ndjson", "ef8cc34dd233109d6ca4b63719ae890943b18ee61b02e168b331bf8009f8f221"),
        ],
    )
    def test_golden_bytes(self, tmp_path, ext, sha256):
        path = tmp_path / f"fc.{ext}"
        write_forecast_records(path, golden_ensembles())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    @settings(max_examples=60, deadline=None)
    @given(ensembles=ensemble_lists())
    def test_csv_round_trip_property(self, tmp_path_factory, ensembles):
        path = tmp_path_factory.mktemp("csv") / "fc.csv"
        write_forecast_records(path, ensembles)
        assert path.read_bytes() == reference_csv_records(ensembles)
        loaded = ingest_external_forecasts(path)
        expected = sorted(ensembles, key=lambda e: e.window_id)
        assert [e.window_id for e in loaded] == [e.window_id for e in expected]
        for orig, back in zip(expected, loaded):
            ids, preds = sorted_by_member(orig)
            assert (back.origin, back.member_ids) == (orig.origin, ids)
            rounded = np.vectorize(lambda x: float(format(x, ".9g")))(preds)
            assert_bits_equal(back.predictions, rounded)

    @settings(max_examples=60, deadline=None)
    @given(ensembles=ensemble_lists())
    def test_ndjson_round_trip_property(self, tmp_path_factory, ensembles):
        path = tmp_path_factory.mktemp("ndjson") / "fc.ndjson"
        write_forecast_records(path, ensembles)
        lines = path.read_text().splitlines()
        cells = [json.loads(line) for line in lines]
        assert len(cells) == sum(e.predictions.size for e in ensembles)
        assert list(cells[0]) == list(RECORD_FIELDS)
        loaded = ingest_external_forecasts(path)
        expected = sorted(ensembles, key=lambda e: e.window_id)
        assert [e.window_id for e in loaded] == [e.window_id for e in expected]
        for orig, back in zip(expected, loaded):
            ids, preds = sorted_by_member(orig)
            assert (back.origin, back.member_ids) == (orig.origin, ids)
            assert_bits_equal(back.predictions, preds)

    @settings(max_examples=150, deadline=None)
    @given(ensembles=ensemble_lists(), ext=st.sampled_from(["csv", "ndjson"]),
           edits=record_edits)
    def test_edited_files_match_reference_reader(self, tmp_path_factory, ensembles, ext, edits):
        assert_ingest_matches_reference(edited_file(tmp_path_factory, ensembles, ext, edits))

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7])
    @settings(max_examples=150, deadline=None)
    @given(ensembles=ensemble_lists(), ext=st.sampled_from(["csv", "ndjson"]),
           edits=record_edits)
    def test_edited_files_match_reference_reader_in_small_chunks(
            self, tmp_path_factory, chunk_rows, ensembles, ext, edits):
        path = edited_file(tmp_path_factory, ensembles, ext, edits)
        with chunk_rows_patched(chunk_rows):
            assert_ingest_matches_reference(path)

    def test_accepts_reordered_columns_extra_column_lf_and_blank_lines(self, tmp_path):
        original = tmp_path / "fc.csv"
        ensembles = golden_ensembles()
        write_forecast_records(original, ensembles)
        with open(original, newline="") as fh:
            rows = list(csv.reader(fh))
        order = [5, 2, 0, 4, 1, 3]
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([rows[0][i] for i in order] + ["note"])
            for n, row in enumerate(rows[1:]):
                writer.writerow([row[i] for i in order] + ["x,y"])
                if n % 7 == 0:
                    fh.write("\n")
        text = edited.read_text()
        assert "\r" not in text and "\n\n" in text
        for back, orig in zip(ingest_external_forecasts(edited),
                              ingest_external_forecasts(original)):
            assert (back.window_id, back.origin, back.member_ids) == (
                orig.window_id, orig.origin, orig.member_ids)
            assert_bits_equal(back.predictions, orig.predictions)

    def _records(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_records(path, self._make_ensembles())
        with open(path, newline="") as fh:
            return path, list(csv.reader(fh))

    @staticmethod
    def _rewrite(path, rows):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize(
        "field, text, message",
        [
            (5, "abc", "line 3: bad forecast record (could not convert string to float: 'abc')"),
            (3, "1.5", "line 3: bad forecast record (invalid literal for int() with base 10: '1.5')"),
            (3, "0", "record 2: step must be >= 1 and variable >= 0, got (0, 1)"),
            (4, "-1", "record 2: step must be >= 1 and variable >= 0, got (1, -1)"),
            # int() and float() read these two; numpy, whose grammar CSV records follow, does not
            (3, "1_0", "line 3: bad forecast record (not an ASCII number without '_': '1_0')"),
            (5, "\u0661",
             "line 3: bad forecast record (not an ASCII number without '_': '\u0661')"),
        ],
        ids=["malformed-value", "fractional-step", "step-zero", "negative-variable",
             "digit-separator", "arabic-indic-digit"],
    )
    def test_rejects_bad_field(self, tmp_path, field, text, message):
        path, rows = self._records(tmp_path)
        rows[2][field] = text
        self._rewrite(path, rows)
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: {message}"
        with pytest.raises(reference_records.RecordError) as ref_err:
            reference_records.ref_ingest(path)
        assert str(ref_err.value) == message

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("value", "1" + "0" * 400, "int too large to convert to float"),
            ("step", "Infinity", "cannot convert float infinity to integer"),
        ],
        ids=["huge-value", "infinite-step"],
    )
    def test_ndjson_number_out_of_range(self, tmp_path, field, text, message):
        path = tmp_path / "fc.ndjson"
        write_forecast_records(path, self._make_ensembles())
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = "<N>"
        lines[1] = json.dumps(record).replace('"<N>"', text)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: line 2: bad forecast record ({message})"

    @pytest.mark.parametrize("field", ["window_id", "origin", "step", "variable"])
    @pytest.mark.parametrize("spelling", ["fraction", "integral-float", "bool"])
    def test_ndjson_integer_field_not_truncated(self, tmp_path, field, spelling):
        # line 2 is window 0, origin 9, member m1, step 1, variable 1: int() would
        # read each spelling below back as a plausible integer and accept the file
        path = tmp_path / "fc.ndjson"
        write_forecast_records(path, self._make_ensembles())
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        bad = {"fraction": record[field] + 0.7, "integral-float": float(record[field]),
               "bool": True}[spelling]
        record[field] = bad
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: line 2: bad forecast record (not an integer: {bad!r})"
        with pytest.raises(reference_records.RecordError) as ref_err:
            reference_records.ref_ingest(path)
        assert str(err.value) == f"{path}: {ref_err.value}"

    def test_ndjson_numeric_string_integer_accepted(self, tmp_path):
        ensembles = self._make_ensembles()
        path = tmp_path / "fc.ndjson"
        write_forecast_records(path, ensembles)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["step"] = str(record["step"])
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        got = ingest_external_forecasts(path)
        assert all(np.array_equal(g.predictions, e.predictions) for g, e in zip(got, ensembles))

    def _ndjson_with(self, tmp_path, field, value):
        """The records of ``_make_ensembles`` as NDJSON, line 2's ``field`` set to
        ``value`` (window 0, origin 9, member m1, step 1, variable 1)."""
        path = tmp_path / "fc.ndjson"
        write_forecast_records(path, self._make_ensembles())
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = value
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("field, value, message", [
        ("value", True, "not a number: True"),
        ("value", False, "not a number: False"),
        ("window_id", "0_1", "not an ASCII number without '_': '0_1'"),
        ("value", "1_0", "not an ASCII number without '_': '1_0'"),
        ("step", "\u0661", "not an ASCII number without '_': '\u0661'"),
        ("value", "\uff11", "not an ASCII number without '_': '\uff11'"),
    ], ids=["true-value", "false-value", "separator-window", "separator-value",
            "arabic-indic-step", "fullwidth-value"])
    def test_ndjson_strings_and_bools_follow_the_number_rule(self, tmp_path, field, value,
                                                             message):
        # float() read a bool value as 1.0/0.0, and int()/float() read each
        # string as a number ("0_1" as window 1, "1_0" as 10.0)
        path = self._ndjson_with(tmp_path, field, value)
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: line 2: bad forecast record ({message})"
        with pytest.raises(reference_records.RecordError) as ref_err:
            reference_records.ref_ingest(path)
        assert str(err.value) == f"{path}: {ref_err.value}"

    @pytest.mark.parametrize("member", [None, 5, True], ids=["null", "number", "bool"])
    def test_ndjson_member_id_must_be_a_string(self, tmp_path, member):
        # str() read these as the members 'None', '5' and 'True'
        path = self._ndjson_with(tmp_path, "member_id", member)
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == (
            f"{path}: line 2: bad forecast record (member_id is not a string: {member!r})")
        with pytest.raises(reference_records.RecordError) as ref_err:
            reference_records.ref_ingest(path)
        assert str(err.value) == f"{path}: {ref_err.value}"

    def test_short_csv_row_is_named_by_its_step(self, tmp_path):
        # csv fills a short row's missing member with None: the step, read
        # first, names the row, as it did before members were checked
        path, rows = self._records(tmp_path)
        rows[2] = rows[2][:2]
        self._rewrite(path, rows)
        message = ("line 3: bad forecast record (int() argument must be a string, a "
                   "bytes-like object or a real number, not 'NoneType')")
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: {message}"
        with pytest.raises(reference_records.RecordError) as ref_err:
            reference_records.ref_ingest(path)
        assert str(ref_err.value) == message

    @pytest.mark.parametrize("text, number", [(" 2.5 ", 2.5), ("-1e-3", -1e-3), ("7", 7.0)])
    def test_ndjson_numeric_string_value_accepted(self, tmp_path, text, number):
        path = self._ndjson_with(tmp_path, "value", text)
        cube = ingest_external_forecasts(path)
        assert cube.predictions[0, 0, 0, 1] == number
        assert_ingest_matches_reference(path)

    def test_missing_cell_reported(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_records(path, self._make_ensembles())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == (
            f"{path}: window 2: expected 12 cells (2 members x 3 steps x 2 variables), got 11; "
            "first missing: [('m2', 3, 1)]"
        )

    def test_duplicate_cell_reported_with_line(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_records(path, self._make_ensembles())
        lines = path.read_text().splitlines()
        lines.append(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == (
            f"{path}: record 37: duplicate cell window=0 member='m1' step=1 variable=0 "
            "(first seen at record 1)"
        )

    def test_lowest_record_error_wins(self, tmp_path):
        path, rows = self._records(tmp_path)
        rows.append(rows[5])  # duplicate of record 5, as record 37
        rows[30][3] = "0"  # step out of range at record 30
        self._rewrite(path, rows)
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value).startswith(f"{path}: record 30: step must be")

    def test_conflicting_origin_reported(self, tmp_path):
        path = tmp_path / "fc.ndjson"
        write_forecast_records(path, self._make_ensembles())
        lines = path.read_text().splitlines()

        rec = json.loads(lines[0])
        rec["origin"] += 1
        rec["step"] = 99  # avoid the duplicate-cell check firing first
        lines.append(json.dumps(rec))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="conflicting origins"):
            ingest_external_forecasts(path)

    def test_conflicting_origin_before_missing_cells(self, tmp_path):
        path, rows = self._records(tmp_path)
        rows[20][1] = "99"  # window 1's eighth record names another origin
        del rows[-1]  # and window 2 loses a cell
        self._rewrite(path, rows)
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: record 20: window 1 has conflicting origins 10 and 99"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("")
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: empty forecast file"
        path.write_text(",".join(RECORD_FIELDS) + "\r\n")
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: no forecast records found"

    def test_bad_extension(self, tmp_path):
        with pytest.raises(ValidationError):
            ingest_external_forecasts(tmp_path / "fc.parquet")


def record_rows(ensembles):
    """[window_id, origin, member_id, step, variable, value] lists, as written."""
    return [[e.window_id, e.origin, e.member_ids[m], s + 1, v, float(e.predictions[m, s, v])]
            for e in ensembles
            for m in range(len(e.member_ids))
            for s in range(e.predictions.shape[1])
            for v in range(e.predictions.shape[2])]


def write_rows(path, rows):
    """Records in file order; None writes a blank line."""
    if str(path).endswith(".csv"):
        write_body(path, [list(RECORD_FIELDS)], [[] if r is None else r for r in rows])
    else:
        write_body(path, [], ["" if r is None else json.dumps(dict(zip(RECORD_FIELDS, r)))
                              for r in rows])


def _edit(rows, i, field, value):
    rows[i] = rows[i][:field] + [value] + rows[i][field + 1:]
    return rows


def _renamed(rows, names):
    return [r[:2] + [names.get(r[2], r[2])] + r[3:] for r in rows]


# Edits of a 36-record file (windows 0-2 of members m1, m2 x 3 steps x 2
# variables) whose effects straddle a boundary at chunks of 1, 2 and 7 records.
BOUNDARY_CASES = {
    "duplicate-far": lambda rows: rows + [rows[0]],
    "duplicate-straddles": lambda rows: rows[:7] + [rows[6]] + rows[7:],
    "origin-conflict-straddles": lambda rows: _edit(rows, 7, 1, 99),
    "member-first-seen-late": lambda rows: sorted(rows, key=lambda r: r[2]),
    "members-out-of-name-order": lambda rows: _renamed(rows, {"m1": "zz"}),
    "steps-grow-late": lambda rows: sorted(rows, key=lambda r: r[3]),
    "variables-grow-late": lambda rows: sorted(rows, key=lambda r: r[4]),
    "windows-out-of-order": lambda rows: rows[24:] + rows[:12] + rows[12:24],
    "quoted-members": lambda rows: _renamed(rows, {"m1": "a,b", "m2": "m\n1"}),
    "blank-run": lambda rows: rows[:7] + [None] * 20 + rows[7:] + [None] * 9,
    "missing-cell": lambda rows: rows[:20] + rows[21:],
    "absurd-step-duplicated": lambda rows: _edit(rows, 1, 3, 10**12) + [rows[1]],
    "absurd-variable-then-duplicate": lambda rows: _edit(rows, 1, 4, 10**12) + [rows[30]],
    # one record, two errors: the one README's order names first wins
    "duplicate-before-origin-far": lambda rows: _edit(rows + [rows[0]], 36, 1, 99),
    "origin-before-room": lambda rows: _edit(_edit(rows, 7, 1, 99), 7, 3, 10**12),
    "duplicate-before-origin-near": lambda rows: _edit(rows[:3] + [rows[2]] + rows[3:], 3, 1, 99),
}


def test_record_walk_of_a_clean_chunk_raises():
    # a chunk the array checks refused must hold a bad record: a walk that
    # finds none is an internal error, never a silent pass
    grid = forecast_module._RecordGrid({"m1": 0}, 100)
    window_id, origin, member, step, variable = (np.array([0, 0]), np.array([9, 9]),
                                                 np.array([0, 0]), np.array([1, 2]),
                                                 np.array([0, 0]))
    slot = grid._slots(window_id, origin)
    with pytest.raises(AssertionError, match="none is bad"):
        grid._first_error(1, window_id, origin, slot, member, step, variable)


class TestStreamingIngest:
    """Chunked ingest gives what a whole-file read gives, whatever the chunk size."""

    @staticmethod
    def _rows():
        rng = np.random.default_rng(6)
        return record_rows(ForecastCube(rng.normal(size=(3, 2, 3, 2)), range(3), range(9, 12),
                                        ("m1", "m2")))

    @pytest.mark.parametrize("chunk_rows", [None, 1, 2, 7])
    @pytest.mark.parametrize("ext", ["csv", "ndjson"])
    @pytest.mark.parametrize("case", list(BOUNDARY_CASES))
    def test_chunk_boundaries_match_reference(self, tmp_path, case, ext, chunk_rows):
        path = tmp_path / f"fc.{ext}"
        write_rows(path, BOUNDARY_CASES[case](self._rows()))
        with chunk_rows_patched(chunk_rows):
            assert_ingest_matches_reference(path)

    @pytest.mark.parametrize("chunk_rows", [None, 1, 7])
    def test_csv_error_names_the_physical_line(self, tmp_path, chunk_rows):
        # after the header, records 1-2 are lines 2-3 and line 4 is blank;
        # records 3-6 are lines 5-8, and the line break in member "m<LF>2"
        # spreads records 7-12 over lines 9-20, so record 13 is on line 21
        path = tmp_path / "fc.csv"
        rows = _edit(_renamed(self._rows(), {"m2": "m\n2"}), 12, 5, "abc")
        write_rows(path, rows[:2] + [None] + rows[2:])
        with chunk_rows_patched(chunk_rows), pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == (
            f"{path}: line 21: bad forecast record (could not convert string to float: 'abc')")
        with chunk_rows_patched(chunk_rows):
            assert_ingest_matches_reference(path)

    def _noted(self, rows, note_line=2):
        """``rows`` with an extra ``note`` column, 200,000 characters (past csv's
        default field size limit) on line ``note_line`` and empty elsewhere."""
        return [r + ["x" * 200_000 if i + 2 == note_line else ""] for i, r in enumerate(rows)]

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_long_field_before_a_bad_record(self, tmp_path, chunk_rows):
        # numpy reads the long note; the walk of the refused chunk must too,
        # and leave csv's process-wide limit as it found it
        path = tmp_path / "fc.csv"
        write_body(path, [[*RECORD_FIELDS, "note"]], self._noted(_edit(self._rows(), 5, 5, "abc")))
        limit = csv.field_size_limit()
        with chunk_rows_patched(chunk_rows), pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == (
            f"{path}: line 7: bad forecast record (could not convert string to float: 'abc')")
        assert csv.field_size_limit() == limit

    def test_long_valid_field_ingests_bit_identically(self, tmp_path):
        plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
        write_rows(plain, self._rows())
        write_body(noted, [[*RECORD_FIELDS, "note"]], self._noted(self._rows()))
        got, want = ingest_external_forecasts(noted), ingest_external_forecasts(plain)
        assert got.member_ids == want.member_ids
        assert np.array_equal(got.window_ids, want.window_ids)
        assert np.array_equal(got.origins, want.origins)
        assert_bits_equal(got.predictions, want.predictions)

    def test_nul_is_named_by_its_line(self, tmp_path):
        # csv before Python 3.11 refuses a line with a NUL outright, where
        # later versions read the NUL as the value: either way line 7 is named
        path = tmp_path / "fc.csv"
        write_rows(path, self._rows())
        lines = path.read_bytes().split(b"\r\n")
        lines[6] = lines[6].rsplit(b",", 1)[0] + b",\x00"  # csv.writer before 3.11 refuses it
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value).startswith(f"{path}: line 7: ")

    def test_long_header_field_is_named(self, tmp_path):
        # the header alone keeps csv's limit: it bounds a quote that never closes
        path = tmp_path / "fc.csv"
        write_body(path, [[*RECORD_FIELDS, "x" * 200_000]], [r + [""] for r in self._rows()])
        with pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: header: field larger than field limit (131072)"

    @pytest.mark.parametrize("ext", ["csv", "ndjson"])
    @pytest.mark.parametrize("field, message", [
        (3, "record 2: cell window=0 member='m1' step=1000000000000 variable=1 would make the "
            "grid 1 windows x 1 members x 1000000000000 steps x 2 variables, more cells than "
            "the {room} records this file has room for"),
        (4, "record 2: cell window=0 member='m1' step=1 variable=1000000000000 would make the "
            "grid 1 windows x 1 members x 1 steps x 1000000000001 variables, more cells than "
            "the {room} records this file has room for"),
    ], ids=["step", "variable"])
    def test_absurd_step_or_variable_is_a_record_error(self, tmp_path, ext, field, message):
        # record 2 is window 0, m1, step 1, variable 1: it moves to step or variable 10^12
        path = tmp_path / f"fc.{ext}"
        write_rows(path, _edit(self._rows(), 1, field, 10**12))
        room = path.stat().st_size // 10
        for chunk_rows in (None, 1, 7):
            with chunk_rows_patched(chunk_rows), pytest.raises(DataFormatError) as err:
                ingest_external_forecasts(path)
            assert str(err.value) == f"{path}: {message.format(room=room)}"

    def test_int64_overflow_is_a_parse_error(self, tmp_path):
        # an integer outside int64 names its line, and the first parse error in
        # file order comes before every record error
        path = tmp_path / "fc.csv"
        rows = self._rows()
        overflow = _edit(list(rows), 20, 0, 2**63) + [rows[0]]  # and a duplicate at record 37
        cases = [
            (overflow, "line 22: bad forecast record (integer outside the int64 range: "
                       "9223372036854775808)"),
            (_edit(list(overflow), 30, 5, "abc"), "line 22: bad forecast record (integer "
                                                  "outside the int64 range: 9223372036854775808)"),
            (_edit(list(overflow), 10, 5, "abc"),
             "line 12: bad forecast record (could not convert string to float: 'abc')"),
        ]
        for rows, message in cases:
            write_rows(path, rows)
            for chunk_rows in (None, 1, 7):
                with chunk_rows_patched(chunk_rows), pytest.raises(DataFormatError) as err:
                    ingest_external_forecasts(path)
                assert str(err.value) == f"{path}: {message}"

    def test_bad_last_record_opens_the_file_once(self, tmp_path):
        # the rejected block is walked from the lines in hand: a pipe cannot be re-opened
        path = tmp_path / "fc.csv"
        rows = self._rows()
        write_rows(path, _edit(rows, len(rows) - 1, 5, "abc"))
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        with mock.patch.object(forecast_module, "open", counting_open, create=True), \
                mock.patch.object(core_module, "open", counting_open, create=True), \
                pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == (
            f"{path}: line 37: bad forecast record (could not convert string to float: 'abc')")
        assert opened == [str(path)]

    def test_integer_read_through_a_float_is_refused(self, tmp_path):
        # numpy < 2 may read "1.5" into an int64 column as 1, with only a DeprecationWarning
        path = tmp_path / "fc.csv"
        write_rows(path, _edit(self._rows(), 1, 3, "1.5"))
        loadtxt = np.loadtxt

        def old_loadtxt(lines, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return loadtxt([line.replace(",1.5,", ",1,") for line in lines], **kwargs)

        with mock.patch.object(np, "loadtxt", old_loadtxt), \
                pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == (
            f"{path}: line 3: bad forecast record (invalid literal for int() with base 10: '1.5')")

    def test_refused_chunk_is_walked_alone(self, tmp_path):
        # an integer outside int64 in record 2 of a chunk of 7: the walk stops there
        path = tmp_path / "fc.csv"
        write_rows(path, _edit(self._rows(), 1, 0, 2**63))
        walked = mock.Mock(wraps=forecast_module._parse_record)
        with chunk_rows_patched(7), mock.patch.object(forecast_module, "_parse_record", walked), \
                pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == (f"{path}: line 3: bad forecast record "
                                  "(integer outside the int64 range: 9223372036854775808)")
        assert walked.call_count == 2

    def test_refusal_without_a_found_cause_keeps_numpy_message(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_rows(path, self._rows())

        def refuse(lines, **kwargs):
            raise ValueError("refused")

        with mock.patch.object(np, "loadtxt", refuse), pytest.raises(DataFormatError) as err:
            ingest_external_forecasts(path)
        assert str(err.value) == f"{path}: records from line 2 on (refused)"

    @staticmethod
    def _memory_fixture(path):
        # 400 windows of 6 members x 24 steps x 3 variables, as poakit writes
        # them: 172,800 records. A whole-file table of 48-byte records alone
        # would be 6x the cube.
        rng = np.random.default_rng(3)
        ids = tuple(f"member_{m}" for m in range(6))
        write_forecast_records(path, ForecastCube(rng.normal(size=(400, 6, 24, 3)), range(400),
                                                  range(100, 500), ids))
        return 172_800 * 8  # the cube's bytes

    @staticmethod
    def _traced_ingest(path):
        """ingest_external_forecasts(path), or its error, and its tracemalloc peak."""
        tracemalloc.start()
        try:
            try:
                result = ingest_external_forecasts(path)
            except DataFormatError as exc:
                result = exc
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_one_cube_plus_a_chunk(self, tmp_path):
        path = tmp_path / "fc.csv"
        cube_bytes = self._memory_fixture(path)
        loaded, peak = self._traced_ingest(path)
        assert sum(e.predictions.nbytes for e in loaded) == cube_bytes
        assert peak < 3 * cube_bytes, (peak, cube_bytes)

    def test_memory_bound_holds_for_a_record_the_file_cannot_fill(self, tmp_path):
        # record 1 moves to step 10^12: no record after it may cost memory
        path = tmp_path / "fc.csv"
        cube_bytes = self._memory_fixture(path)
        with open(path, newline="") as fh:
            header, first, rest = fh.readline(), fh.readline(), fh.read()
        path.write_text(header + first.replace(",1,0,", ",1000000000000,0,", 1) + rest,
                        newline="")
        error, peak = self._traced_ingest(path)
        assert peak < 3 * cube_bytes, (peak, cube_bytes)
        assert str(error).startswith(
            f"{path}: record 1: cell window=0 member='member_0' step=1000000000000 variable=0 ")


class TestForecastEnsembles:
    def test_deterministic_member_order_and_shape(self):
        rng = np.random.default_rng(7)
        train = series(rng.normal(size=(60, 2)))
        members = [
            fit(ForecasterSpec("persistence"), train),
            fit(ForecasterSpec("exp_smoothing", alpha=0.5), train),
        ]
        windows = make_windows(train, WindowConfig(10, 4), with_targets=True)
        ensembles = forecast_ensembles(members, windows, horizon=4)
        assert len(ensembles) == len(windows)
        assert ensembles[0].member_ids == ("exp_smoothing_0.5", "persistence")
        assert ensembles[0].predictions.shape == (2, 4, 2)
        # reversing member list must not change output
        again = forecast_ensembles(members[::-1], windows, horizon=4)
        assert np.array_equal(again[0].predictions, ensembles[0].predictions)

    def test_no_windows_refused(self):
        member = fit(ForecasterSpec("persistence"), series(np.arange(20.0)))
        with pytest.raises(ValidationError, match="^no windows to forecast$"):
            forecast_ensembles([member], [], horizon=4)

    # stride 1 with targets: 115 windows; stride 7 without: 18 strided
    # origins, then the forced last origin 149
    @pytest.mark.parametrize("stride,with_targets", [(1, True), (7, False)])
    @pytest.mark.parametrize("c", [1, 3])  # moving_average's two layouts
    @pytest.mark.parametrize("block_windows", [1, 7, None])  # None: _BLOCK_BYTES as set
    def test_blocked_fill_matches_whole_stack(self, stride, with_targets, c, block_windows):
        rng = np.random.default_rng(c)
        train = series(np.cumsum(rng.normal(size=(150, c)), axis=0))
        members = [fit(spec, train) for spec in default_member_specs()]
        windows = make_windows(train, WindowConfig(30, 6, stride), with_targets=with_targets)
        if not with_targets:
            assert [w.origin for w in windows[-2:]] == [148, 149]
        patch = contextlib.nullcontext()
        if block_windows is not None:
            patch = mock.patch.object(forecast_module, "_BLOCK_BYTES",
                                      block_windows * windows[0].input.nbytes)
        with patch:
            got = forecast_ensembles(members, windows, horizon=6)
        assert [(e.window_id, e.origin) for e in got] == [(w.window_id, w.origin) for w in windows]
        assert_bits_equal(np.stack([e.predictions for e in got]),
                          reference_kernels.forecast_ensembles(members, windows, 6))

    def test_memory_is_one_cube_plus_a_block(self):
        # 4,001 windows of 5 members x 24 steps x 3 variables. Beside the
        # cube there is room for one block of inputs and one member's forecast
        # of it, not for a stack of every window's input.
        rng = np.random.default_rng(5)
        test = series(np.cumsum(rng.normal(size=(4100, 3)), axis=0))
        members = [fit(spec, test) for spec in default_member_specs()[:5]]
        windows = make_windows(test, WindowConfig(100, 24), with_targets=False)
        tracemalloc.start()
        try:
            got = forecast_ensembles(members, windows, horizon=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cube_bytes = 4001 * 5 * 24 * 3 * 8
        assert peak < 1.3 * cube_bytes, (peak, cube_bytes)
        # several blocks of the default size, the last one short
        assert_bits_equal(np.stack([e.predictions for e in got]),
                          reference_kernels.forecast_ensembles(members, windows, 24))
