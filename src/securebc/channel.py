"""Problem-instance data model: channels, power budget, file I/O, sampling.

A channel set is one downlink instance: K user channel matrices H_k of shape
(n_k, n_t), one eavesdropper matrix of shape (n_e, n_t), and a total transmit
power budget P in linear units.  Instances are immutable after construction.

File format (JSON)::

    {
      "power": 1.0,
      "users": [ {"H": [[[re, im], ...], ...]}, ... ],
      "eavesdropper": [[[re, im], ...], ...]
    }

Matrices are row-major lists of rows and every complex entry is a two-element
[re, im] array.  Values survive a save/load round trip bit-exactly because
floats are serialized with shortest round-trip decimal text.

Random ensembles use numpy's seeded PCG64 generator
(``numpy.random.default_rng``), so a seed reproduces the same instance on any
platform.  Entries are circularly-symmetric complex Gaussian with unit total
variance (real and imaginary parts each carry variance 1/2), drawn by the
complex Gaussian that ``linalg.random_psd`` shares (``linalg._complex_gaussian``).
"""

from __future__ import annotations

import json
import numbers
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import IO, Sequence, Union

import numpy as np

from .errors import (DimensionMismatch, InvalidPower, LengthMismatch, ParseError,
                     integer_at_least, positive_number)
from .linalg import _complex_gaussian, frozen


@dataclass(frozen=True)
class ChannelSet:
    """One problem instance: user channels, eavesdropper channel, power.

    Channel entries must be finite; a NaN or Inf raises ParseError.
    """

    user_channels: tuple[np.ndarray, ...]
    eavesdropper: np.ndarray
    power: float

    def __init__(self, user_channels: Sequence[np.ndarray],
                 eavesdropper: np.ndarray, power: float):
        users = tuple(frozen(h) for h in user_channels)
        eve = frozen(eavesdropper)
        if len(users) < 1:
            raise DimensionMismatch("at least one user channel is required")
        for h in users + (eve,):
            if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
                raise DimensionMismatch(f"channel matrices must be 2-D, got shape {h.shape}")
        n_t = users[0].shape[1]
        for idx, h in enumerate(users):
            if h.shape[1] != n_t:
                raise DimensionMismatch(
                    f"user {idx + 1} has {h.shape[1]} columns, expected {n_t}")
        if eve.shape[1] != n_t:
            raise DimensionMismatch(
                f"eavesdropper has {eve.shape[1]} columns, expected {n_t}")
        if not all(np.isfinite(h).all() for h in users + (eve,)):
            raise ParseError("channel entries must be finite (no NaN or Inf)")
        object.__setattr__(self, "power", positive_number(power, "power", InvalidPower))
        object.__setattr__(self, "user_channels", users)
        object.__setattr__(self, "eavesdropper", eve)

    @property
    def num_users(self) -> int:
        return len(self.user_channels)

    @property
    def n_t(self) -> int:
        return self.user_channels[0].shape[1]

    @property
    def n_k(self) -> tuple[int, ...]:
        return tuple(h.shape[0] for h in self.user_channels)

    @property
    def n_e(self) -> int:
        return self.eavesdropper.shape[0]

    def with_zero_eavesdropper(self) -> "ChannelSet":
        return ChannelSet(self.user_channels,
                          np.zeros_like(self.eavesdropper), self.power)


@dataclass(frozen=True)
class WeightVector:
    """Per-user nonnegative rate weights, normalized to sum to one."""

    weights: tuple[float, ...] = field(default=())

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights)  # no dtype yet: a complex entry's conversion raises or warns
        if w.ndim != 1 or w.size < 1:
            raise LengthMismatch("weights must be a nonempty 1-D sequence")
        bad = ValueError(f"weights must be finite nonnegative numbers, got {weights}")
        if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in weights):
            raise bad
        try:
            w = w.astype(float)
        except OverflowError:  # an integer past the largest float
            raise bad from None
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise bad
        with np.errstate(over="ignore"):  # a sum past the largest float: scale first
            w = w if np.isfinite(w.sum()) else w / w.max()
        total = float(w.sum())
        if total <= 0:
            raise ValueError("weights must not all be zero")
        object.__setattr__(self, "weights", tuple(float(x) for x in w / total))

    @classmethod
    def of(cls, w: Union["WeightVector", Sequence[float]], users: int) -> "WeightVector":
        """``w`` itself if it is a WeightVector, else the vector of the raw
        sequence ``w``; LengthMismatch unless it holds ``users`` weights."""
        w = w if isinstance(w, cls) else cls(w)
        if len(w) != users:
            raise LengthMismatch(f"{len(w)} weights for {users} users")
        return w

    def __len__(self) -> int:
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        return np.array(self.weights)


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _is_pair(v) -> bool:
    """An entry [re, im]: a list of exactly two JSON numbers, not booleans."""
    return (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v))


def _matrix_from_json(obj, what: str) -> np.ndarray:
    if not (isinstance(obj, list) and obj and all(isinstance(row, list) and row for row in obj)):
        raise ParseError(f"{what}: expected a nonempty 2-D matrix")
    if len({len(row) for row in obj}) != 1:
        raise ParseError(f"{what}: rows have inconsistent lengths")
    bad = f"{what}: entries must be [re, im] pairs of numbers in row-major rows"
    if not all(_is_pair(v) for row in obj for v in row):
        raise ParseError(bad)
    try:
        return np.array([[complex(float(v[0]), float(v[1])) for v in row] for row in obj])
    except OverflowError as exc:  # an integer too large for a float
        raise ParseError(bad) from exc


def read_json_object(source: Union[str, bytes, os.PathLike, IO]) -> dict:
    """The JSON object in a byte stream, file object, or path (``str``,
    ``bytes`` or ``os.PathLike``), else ParseError."""
    path = isinstance(source, (str, bytes, os.PathLike))
    try:
        with open(source, "rb") if path else nullcontext(source) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # malformed, too deep, or not text
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


def load_channel_set(source: Union[str, bytes, os.PathLike, IO]) -> ChannelSet:
    """Parse a ChannelSet from a JSON byte stream, file object, or path
    (``str``, ``bytes`` or ``os.PathLike``)."""
    doc = read_json_object(source)
    for key in ("power", "users", "eavesdropper"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    if not isinstance(doc["users"], list) or not doc["users"]:
        raise ParseError("'users' must be a nonempty list")
    users = []
    for idx, entry in enumerate(doc["users"]):
        if not isinstance(entry, dict) or "H" not in entry:
            raise ParseError(f"user {idx + 1}: expected an object with key 'H'")
        users.append(_matrix_from_json(entry["H"], f"user {idx + 1} H"))
    eve = _matrix_from_json(doc["eavesdropper"], "eavesdropper")
    return ChannelSet(users, eve, doc["power"])


def save_channel_set(ch: ChannelSet, sink: Union[str, os.PathLike, IO]) -> None:
    """Write a ChannelSet in the documented JSON schema to a text stream or
    a path (``str`` or ``os.PathLike``)."""
    doc = {
        "power": ch.power,
        "users": [{"H": matrix_to_json(h)} for h in ch.user_channels],
        "eavesdropper": matrix_to_json(ch.eavesdropper),
    }
    path = isinstance(sink, (str, os.PathLike))
    with open(sink, "w", encoding="ascii") if path else nullcontext(sink) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def sample_channel_set(seed: int, K: int, n_t: int,
                       n_k: Union[int, Sequence[int]], n_e: int,
                       power: float) -> ChannelSet:
    """Draw an i.i.d. complex Gaussian instance, deterministic in ``seed`` (an integer >= 0)."""
    K, n_t, n_e = (integer_at_least(v, 1, name, DimensionMismatch)
                   for v, name in ((K, "K"), (n_t, "n_t"), (n_e, "n_e")))
    n_k = [integer_at_least(v, 1, "n_k", DimensionMismatch)
           for v in ([n_k] * K if np.ndim(n_k) == 0 else n_k)]
    if len(n_k) != K:
        raise LengthMismatch(f"n_k has {len(n_k)} entries for K={K}")
    users, eve = _gaussian_channels(integer_at_least(seed, 0, "seed"), n_t, n_k, n_e)
    return ChannelSet(users, eve, power)


def _gaussian_channels(seed: int, n_t: int, n_k: Sequence[int],
                       n_e: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The draws of :func:`sample_channel_set` as plain arrays: the user channels,
    then the eavesdropper's, finite by construction and not checked."""
    rng = np.random.default_rng(seed)
    return [_complex_gaussian(rng, nk, n_t) for nk in n_k], _complex_gaussian(rng, n_e, n_t)


def example_two_user() -> ChannelSet:
    """Built-in two-user real-valued benchmark instance (P = 1)."""
    h1 = np.array([[1.0, -0.5], [0.5, 2.0]])
    h2 = np.array([[-0.3, 1.0], [2.0, -0.4]])
    g = np.array([[0.8, -1.6]])
    return ChannelSet([h1, h2], g, 1.0)


def example_three_user() -> ChannelSet:
    """Built-in three-user complex benchmark instance (P = 1)."""
    h1 = np.array([[-0.4332 + 0.7954j, -0.3152 - 1.8835j],
                   [-1.0443 + 1.2282j, -0.2614 + 0.2198j]])
    h2 = np.array([[1.3389 - 0.5995j, -0.6924 - 0.4542j],
                   [-1.2542 + 0.1338j, -2.1644 + 0.6520j]])
    h3 = np.array([[1.0291 - 0.0212j, -0.3016 - 0.3662j],
                   [0.1646 + 0.5179j, 0.3075 + 0.2919j]])
    g = np.array([[-0.0875 - 0.9443j, -0.4637 + 0.7799j]])
    return ChannelSet([h1, h2, h3], g, 1.0)
