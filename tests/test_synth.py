import json

import numpy as np
import pytest

from poakit.core import Segment, ValidationError
from poakit.synth import (
    AnomalySpec,
    Ar1Base,
    PrecursorSpec,
    SineBase,
    SynthConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    generate,
)


def small_config(**overrides):
    base = dict(
        length=400,
        variables=(SineBase(1.0, 50.0), Ar1Base(0.8, 0.1)),
        anomalies=(AnomalySpec(200, 10, "spike", 2.0),),
        precursor=PrecursorSpec(lead=15, length=15, drift_magnitude=0.8, noise_inflation=2.0),
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_anomaly_beyond_series(self):
        with pytest.raises(ValidationError, match="exceeds"):
            small_config(anomalies=(AnomalySpec(395, 10, "spike", 1.0),))

    def test_overlapping_anomalies(self):
        with pytest.raises(ValidationError, match="overlap"):
            small_config(
                anomalies=(
                    AnomalySpec(200, 10, "spike", 1.0),
                    AnomalySpec(205, 10, "level_shift", 1.0),
                )
            )

    def test_precursor_overlapping_previous_anomaly(self):
        with pytest.raises(ValidationError, match="overlap"):
            small_config(
                anomalies=(
                    AnomalySpec(200, 10, "spike", 1.0),
                    AnomalySpec(215, 10, "level_shift", 1.0),
                )
            )

    def test_precursor_before_start(self):
        with pytest.raises(ValidationError, match="before the series"):
            small_config(anomalies=(AnomalySpec(5, 10, "spike", 1.0),))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            AnomalySpec(10, 5, "drift", 1.0)

    def test_precursor_length_capped_by_lead(self):
        with pytest.raises(ValidationError):
            PrecursorSpec(lead=5, length=10)


class TestGenerate:
    def test_zero_anomalies_means_zero_labels(self):
        cfg = small_config(anomalies=(), precursor=None)
        _, _, labels, truth = generate(cfg)
        assert labels.flags.sum() == 0
        assert truth == []

    def test_labels_mark_anomaly_region(self):
        cfg = small_config(anomalies=(AnomalySpec(200, 10, "spike", 2.0),))
        _, _, labels, _ = generate(cfg)
        assert np.array_equal(np.flatnonzero(labels.flags), np.arange(200, 210))

    def test_precursor_truth_ends_at_onset_minus_one(self):
        cfg = small_config()
        _, _, _, truth = generate(cfg)
        assert truth == [Segment(185, 15)]
        assert truth[0].end == 199

    def test_deterministic_for_same_seed(self):
        cfg = small_config()
        train1, test1, labels1, _ = generate(cfg)
        train2, test2, labels2, _ = generate(cfg)
        assert np.array_equal(train1.values, train2.values)
        assert np.array_equal(test1.values, test2.values)
        assert np.array_equal(labels1.flags, labels2.flags)

    def test_seed_changes_output(self):
        a = generate(small_config(seed=1))[1].values
        b = generate(small_config(seed=2))[1].values
        assert not np.array_equal(a, b)

    def test_train_is_clean_of_injections(self):
        # train and test share nothing but the config; train must look like
        # the no-injection config's train
        cfg = small_config()
        clean = small_config(anomalies=(), precursor=None)
        assert np.array_equal(generate(cfg)[0].values, generate(clean)[0].values)

    def test_level_shift_moves_mean(self):
        cfg = small_config(
            anomalies=(AnomalySpec(200, 30, "level_shift", 3.0),),
            precursor=None,
        )
        _, test, _, _ = generate(cfg)
        inside = test.values[200:230, 0].mean()
        outside = test.values[140:170, 0].mean()
        assert inside - outside > 1.5

    def test_default_config_shape(self):
        cfg = default_config()
        train, test, labels, truth = generate(cfg)
        assert len(train) == 5000 and len(test) == 5000
        assert train.n_variables == 3
        assert len(truth) == 6
        assert labels.flags.sum() == 6 * 40


class TestConfigJson:
    def test_round_trip_default_config(self):
        cfg = default_config(seed=5)
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg

    def test_round_trip_without_precursor(self):
        cfg = small_config(precursor=None)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_variable_kind(self):
        with pytest.raises(ValidationError, match="unknown variable kind"):
            config_from_dict({"length": 10, "variables": [{"kind": "walk"}]})

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("anomalies", 0, "start"), 200.7, "'start': not an integer: 200.7"),
            (("anomalies", 0, "length"), 10.0, "'length': not an integer: 10.0"),
            (("seed",), 3.9, "'seed': not an integer: 3.9"),
            (("length",), True, "'length': not an integer: True"),
            (("precursor", "lead"), 15.5, "'lead': not an integer: 15.5"),
            (("anomalies", 0, "magnitude"), True, "'magnitude': not a number: True"),
            (("variables", 0, "period"), False, "'period': not a number: False"),
        ],
    )
    def test_rejects_truncated_or_coerced_fields(self, path, value, message):
        data = json.loads(json.dumps(config_to_dict(small_config())))
        *parents, key = path
        node = data
        for part in parents:
            node = node[part]
        node[key] = value
        with pytest.raises(ValidationError, match=message):
            config_from_dict(data)

    def test_integer_fields_accept_ints_and_numeric_strings(self):
        data = config_to_dict(small_config())
        data["anomalies"][0]["start"] = "200"
        data["seed"] = "7"
        assert config_from_dict(data) == small_config()

    @pytest.mark.parametrize(
        "path,value",
        [
            (("length",), "4_00"),
            (("anomalies", 0, "start"), "\u0662\u0660\u0660"),  # Arabic-Indic 200
            (("seed",), "\uff17"),  # fullwidth 7
            (("anomalies", 0, "magnitude"), "2_0"),
            (("variables", 0, "period"), "\u0665\u0660"),
        ],
        ids=["separator-int", "arabic-indic-int", "fullwidth-int", "separator-float",
             "arabic-indic-float"],
    )
    def test_string_fields_follow_the_csv_grammar(self, path, value):
        # int() and float() read each of these back as the small config's own
        # value, so the config used to build without a word
        data = config_to_dict(small_config())
        *parents, key = path
        node = data
        for part in parents:
            node = node[part]
        node[key] = value
        with pytest.raises(ValidationError, match=(
                f"'{key}': not an ASCII number without '_': {value!r}")):
            config_from_dict(data)

    def test_float_fields_accept_numeric_strings(self):
        data = config_to_dict(small_config())
        data["anomalies"][0]["magnitude"] = " 2.0 "
        data["variables"][0]["period"] = "5e1"
        assert config_from_dict(data) == small_config()

    def test_missing_required_field(self):
        data = config_to_dict(small_config())
        del data["anomalies"][0]["magnitude"]
        with pytest.raises(ValidationError, match="synth config is missing 'magnitude'"):
            config_from_dict(data)


class TestPrecursorStatisticalSignature:
    def test_first_difference_variance_sign_test(self):
        # over 20 seeds the precursor region should look noisier (in first
        # differences) than a matched clean region essentially always
        wins = 0
        for seed in range(20):
            cfg = small_config(seed=seed)
            _, test, _, truth = generate(cfg)
            seg = truth[0]
            pre = np.diff(test.values[seg.start : seg.end + 1, 0])
            clean = np.diff(test.values[seg.start - 100 : seg.start - 100 + seg.length, 0])
            if pre.var() > clean.var():
                wins += 1
        assert wins >= 15  # one-sided sign test, p < 0.05 for 20 trials
