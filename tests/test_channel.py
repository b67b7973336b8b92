import io
import json

import numpy as np
import pytest

from securebc import (ChannelSet, DimensionMismatch, InvalidPower,
                      LengthMismatch, ParseError, WeightVector,
                      example_two_user, load_channel_set, sample_channel_set,
                      save_channel_set)


class TestChannelSet:
    def test_example_instance_dimensions(self):
        ch = example_two_user()
        assert ch.num_users == 2
        assert ch.n_t == 2
        assert ch.n_k == (2, 2)
        assert ch.n_e == 1
        assert ch.power == 1.0

    def test_column_mismatch_rejected(self):
        h1 = np.ones((2, 3))
        g = np.ones((1, 2))
        with pytest.raises(DimensionMismatch):
            ChannelSet([h1], g, 1.0)

    def test_eavesdropper_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            ChannelSet([np.ones((2, 2))], np.ones((1, 3)), 1.0)

    def test_no_users_rejected(self):
        with pytest.raises(DimensionMismatch):
            ChannelSet([], np.ones((1, 2)), 1.0)

    def test_bad_power_rejected(self):
        for p in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidPower):
                ChannelSet([np.ones((2, 2))], np.ones((1, 2)), p)

    def test_non_finite_entries_rejected(self):
        for bad in (float("nan"), float("inf"), complex(0.0, float("-inf"))):
            h = np.ones((2, 2), dtype=complex)
            h[1, 0] = bad
            g = np.ones((1, 2), dtype=complex)
            g[0, 1] = bad
            with pytest.raises(ParseError):
                ChannelSet([h], np.ones((1, 2)), 1.0)
            with pytest.raises(ParseError):
                ChannelSet([np.ones((2, 2))], g, 1.0)

    def test_arrays_immutable(self):
        ch = example_two_user()
        with pytest.raises(ValueError):
            ch.user_channels[0][0, 0] = 5.0

    def test_zero_eavesdropper_helper(self):
        ch = example_two_user().with_zero_eavesdropper()
        assert np.all(ch.eavesdropper == 0)
        assert ch.n_e == 1


class TestChannelFileIO:
    def test_round_trip_bit_exact(self, tmp_path):
        ch = sample_channel_set(11, 3, 3, [1, 2, 3], 2, 2.75)
        path = str(tmp_path / "ch.json")
        save_channel_set(ch, path)
        back = load_channel_set(path)
        assert back.power == ch.power
        for a, b in zip(back.user_channels, ch.user_channels):
            assert np.array_equal(a, b)
        assert np.array_equal(back.eavesdropper, ch.eavesdropper)

    def test_loads_example_instance(self, tmp_path):
        path = str(tmp_path / "ex1.json")
        save_channel_set(example_two_user(), path)
        ch = load_channel_set(path)
        assert (ch.num_users, ch.n_t, ch.n_e) == (2, 2, 1)
        assert ch.user_channels[0][0, 0] == 1.0 + 0.0j

    def test_loads_from_stream(self):
        buf = io.StringIO()
        save_channel_set(example_two_user(), buf)
        buf.seek(0)
        ch = load_channel_set(buf)
        assert ch.num_users == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_channel_set(str(path))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"power": 1.0, "users": [{"H": [[[1, 0]]]}]}))
        with pytest.raises(ParseError):
            load_channel_set(str(path))

    def test_inconsistent_columns(self, tmp_path):
        doc = {
            "power": 1.0,
            "users": [{"H": [[[1, 0], [0, 0], [0, 0]]]}],  # 1x3
            "eavesdropper": [[[1, 0], [0, 0]]],            # 1x2
        }
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionMismatch):
            load_channel_set(str(path))

    def test_nonpositive_power(self, tmp_path):
        doc = {
            "power": 0.0,
            "users": [{"H": [[[1, 0]]]}],
            "eavesdropper": [[[1, 0]]],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidPower):
            load_channel_set(str(path))

    def test_ragged_rows(self, tmp_path):
        doc = {
            "power": 1.0,
            "users": [{"H": [[[1, 0], [0, 0]], [[1, 0]]]}],
            "eavesdropper": [[[1, 0], [0, 0]]],
        }
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_channel_set(str(path))

    def test_non_finite_entry_in_file(self, tmp_path):
        # Python's json reads the NaN token; the instance must still be refused
        path = tmp_path / "nan.json"
        path.write_text('{"power": 1.0, "users": [{"H": [[[NaN, 0], [1, 0]]]}], '
                        '"eavesdropper": [[[1, 0], [0, 1]]]}')
        with pytest.raises(ParseError):
            load_channel_set(str(path))


class TestSampling:
    def test_deterministic_in_seed(self):
        a = sample_channel_set(7, 2, 3, [2, 1], 2, 1.5)
        b = sample_channel_set(7, 2, 3, [2, 1], 2, 1.5)
        for x, y in zip(a.user_channels, b.user_channels):
            assert np.array_equal(x, y)
        assert np.array_equal(a.eavesdropper, b.eavesdropper)
        c = sample_channel_set(8, 2, 3, [2, 1], 2, 1.5)
        assert not np.array_equal(a.eavesdropper, c.eavesdropper)

    def test_unit_variance_convention(self):
        # 10^5 scalar entries: |h|^2 averages to 1, each component to 1/2
        ch = sample_channel_set(123, 1, 100_000, [1], 1, 1.0)
        h = ch.user_channels[0].ravel()
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)
        assert np.var(h.real) == pytest.approx(0.5, rel=0.02)
        assert np.var(h.imag) == pytest.approx(0.5, rel=0.02)

    def test_zero_users_rejected(self):
        with pytest.raises(DimensionMismatch):
            sample_channel_set(0, 0, 2, [], 1, 1.0)

    def test_nk_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sample_channel_set(0, 2, 2, [2], 1, 1.0)


class TestWeightVector:
    def test_normalizes(self):
        w = WeightVector([2.0, 2.0])
        assert w.weights == (0.5, 0.5)
        assert sum(w.weights) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector([0.5, -0.1])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            WeightVector([0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(LengthMismatch):
            WeightVector([])
