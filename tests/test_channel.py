import io
import json

import numpy as np
import pytest

from securebc import (ChannelSet, DimensionMismatch, InvalidPower,
                      LengthMismatch, ParseError, WeightVector,
                      example_two_user, load_channel_set, sample_channel_set,
                      save_channel_set)
from securebc.cli import cli_main


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

    def test_user_column_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="user 2 has 3 columns, expected 2"):
            ChannelSet([np.ones((2, 2)), np.ones((1, 3))], np.ones((1, 2)), 1.0)

    def test_non_2d_channels_rejected(self):
        for users, eve in (([np.ones(2)], np.ones((1, 2))), ([np.ones((2, 2))], np.ones(2)),
                           ([np.ones((1, 2, 2))], np.ones((1, 2))),
                           ([np.ones((0, 2))], np.ones((1, 2)))):
            with pytest.raises(DimensionMismatch, match="must be 2-D"):
                ChannelSet(users, eve, 1.0)

    def test_eavesdropper_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            ChannelSet([np.ones((2, 2))], np.ones((1, 3)), 1.0)

    def test_no_users_rejected(self):
        with pytest.raises(DimensionMismatch):
            ChannelSet([], np.ones((1, 2)), 1.0)

    def test_bad_power_rejected(self):
        # True is not P = 1, as in a file; a non-number and an integer beyond
        # the float range get the same typed error
        for p in (0.0, -1.0, float("nan"), True, "1", None, 10 ** 400):
            with pytest.raises(InvalidPower, match="finite and positive number"):
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

    def test_path_objects(self, tmp_path):
        # a pathlib.Path for save and load, and its bytes for load
        ch, path = example_two_user(), tmp_path / "ch.json"
        save_channel_set(ch, path)
        for source in (path, bytes(path)):
            back = load_channel_set(source)
            assert back.power == ch.power
            for a, b in zip(back.user_channels + (back.eavesdropper,),
                            ch.user_channels + (ch.eavesdropper,)):
                assert np.array_equal(a, b)

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


def _doc(H=None, **over) -> bytes:
    """A one-user channel file with user matrix ``H`` (by default a valid
    1 x 2 one) and any other keys overridden by ``over``."""
    doc = {"power": 1.0, "users": [{"H": [[[1, 0], [0, 0]]] if H is None else H}],
           "eavesdropper": [[[1, 0], [0, 0]]]}
    doc.update(over)
    return json.dumps(doc).encode()


ENTRIES = "entries must be"


BAD_DOCUMENTS = {
    # matrix entries that are not two JSON numbers
    "entry-object": (_doc([[{"re": 1, "im": 0}, [0, 0]]]), ParseError, ENTRIES),
    "entry-string": (_doc([["12", [0, 0]]]), ParseError, ENTRIES),
    "entry-three-numbers": (_doc([[[1, 0, 99], [0, 0]]]), ParseError, ENTRIES),
    "entry-booleans": (_doc([[[True, False], [0, 0]]]), ParseError, ENTRIES),
    "entry-one-number": (_doc([[[1], [0, 0]]]), ParseError, ENTRIES),
    "entry-bare-number": (_doc([[[1, 0], 5]]), ParseError, ENTRIES),
    "entry-huge-integer": (_doc([[[1, 0], [0, "big"]]]).replace(b'"big"', b"1" + b"0" * 400),
                           ParseError, ENTRIES),
    # shapes
    "ragged-rows": (_doc([[[1, 0], [0, 0]], [[1, 0]]]), ParseError, "inconsistent lengths"),
    "no-rows": (_doc([]), ParseError, "nonempty 2-D"),
    "empty-row": (_doc([[]]), ParseError, "nonempty 2-D"),
    "matrix-object": (_doc({"0": [[1, 0]]}), ParseError, "nonempty 2-D"),
    "row-number": (_doc([[[1, 0], [0, 0]], 5]), ParseError, "nonempty 2-D"),
    # the document around the matrices
    "not-utf8": (b"\x80\x81{}", ParseError, "malformed JSON"),
    "top-level-list": (b"[1, 2]", ParseError, "must be an object"),
    "no-users": (_doc(users=[]), ParseError, "nonempty list"),
    "users-object": (_doc(users={"H": [[[1, 0]]]}), ParseError, "nonempty list"),
    "user-without-H": (_doc(users=[{"G": [[[1, 0]]]}]), ParseError, "key 'H'"),
    "power-boolean": (_doc(power=True), InvalidPower, "number"),
    "power-string": (_doc(power="1"), InvalidPower, "number"),
    "power-huge-integer": (_doc(power=10 ** 400), InvalidPower, "number"),
}


@pytest.mark.parametrize("text, error, match", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS)
def test_bad_channel_documents_refused(text, error, match):
    with pytest.raises(error, match=match):
        load_channel_set(io.BytesIO(text))


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    # past its nesting limit the JSON decoder raises RecursionError
    path = tmp_path / "deep.json"
    path.write_bytes(_doc(users="deep").replace(b'"deep"', b"[" * 100_000 + b"]" * 100_000))
    assert cli_main(["solve", "--channels", str(path), "--weights", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError: ") and "Traceback" not in err


class TestSampling:
    def test_deterministic_in_seed(self):
        a = sample_channel_set(7, 2, 3, [2, 1], 2, 1.5)
        b = sample_channel_set(np.int64(7), 2, 3, [2, 1], 2, 1.5)
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

    def test_numpy_integer_nk(self):
        a = sample_channel_set(1, 2, 2, np.int64(2), 1, 1.0)
        b = sample_channel_set(1, 2, 2, 2, 1, 1.0)
        for x, y in zip(a.user_channels + (a.eavesdropper,), b.user_channels + (b.eavesdropper,)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("n_k", [True, 2.0, 0], ids=repr)
    def test_scalar_nk_must_be_a_positive_integer(self, n_k):
        with pytest.raises(DimensionMismatch, match="n_k must be an integer of at least 1"):
            sample_channel_set(1, 2, 2, n_k, 1, 1.0)

    @pytest.mark.parametrize("K, n_t, n_k, n_e, what", [
        (True, 2, 1, 1, "K"), (2, True, 1, 1, "n_t"), (2, 2, 1, True, "n_e"),
        (2, 2, [True, 1], 1, "n_k"), (2, 2, [1.5, 1], 1, "n_k")], ids=repr)
    def test_dimensions_must_be_positive_integers(self, K, n_t, n_k, n_e, what):
        with pytest.raises(DimensionMismatch, match=f"{what} must be an integer of at least 1"):
            sample_channel_set(1, K, n_t, n_k, n_e, 1.0)

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "3"], ids=repr)
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # None drew from fresh OS entropy, so each call gave another instance,
        # True ran as seed 1, and -1, 1.5 and "3" raised numpy's own errors
        with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
            sample_channel_set(seed, 2, 2, 2, 1, 1.0)

    def test_nk_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sample_channel_set(0, 2, 2, [2], 1, 1.0)


class TestWeightVector:
    def test_normalizes(self):
        w = WeightVector([2.0, 2.0])
        assert w.weights == (0.5, 0.5)
        assert sum(w.weights) == pytest.approx(1.0, abs=1e-9)

    def test_sum_past_the_largest_float(self):
        # the sum overflows to inf, which once normalized every weight to 0
        assert WeightVector([1e308, 1e308]).weights == (0.5, 0.5)
        assert WeightVector([1.5e308, 0.0, 1.5e308]).weights == (0.5, 0.0, 0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector([0.5, -0.1])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            WeightVector([0.0, 0.0])

    def test_rejects_empty(self):
        # and a 2-D input, whose entries are not numbers either
        for weights in ([], [[1.0, 2.0]], np.ones((2, 2))):
            with pytest.raises(LengthMismatch):
                WeightVector(weights)

    # a complex entry, an integer past the largest float and a complex array
    # (whose float conversion warns) get the same ValueError as the rest
    @pytest.mark.parametrize("weights", [
        ["1", "2"], [True, False], [True, 2], np.array([True, False]), [1.0, None],
        [1 + 0j, 1], pytest.param([10**400, 1], id="[10**400, 1]"), np.array([1 + 0j, 1])],
        ids=repr)
    def test_rejects_non_numbers(self, weights):
        with pytest.raises(ValueError, match="finite nonnegative numbers"):
            WeightVector(weights)

    def test_numpy_numbers(self):
        for weights in (np.array([1, 3]), np.array([0.5, 1.5], dtype=np.float32),
                        [np.int64(1), np.float64(3.0)]):
            assert WeightVector(weights).weights == (0.25, 0.75)
