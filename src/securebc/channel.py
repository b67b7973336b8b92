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
variance (real and imaginary parts each carry variance 1/2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, InvalidPower, LengthMismatch, ParseError
from .linalg import frozen


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
        if not np.isfinite(power) or power <= 0:
            raise InvalidPower(f"power must be positive, got {power}")
        object.__setattr__(self, "user_channels", users)
        object.__setattr__(self, "eavesdropper", eve)
        object.__setattr__(self, "power", float(power))

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
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise LengthMismatch("weights must be a nonempty 1-D sequence")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError(f"weights must be finite and nonnegative, got {weights}")
        total = float(w.sum())
        if total <= 0:
            raise ValueError("weights must not all be zero")
        object.__setattr__(self, "weights", tuple(float(x) for x in w / total))

    def __len__(self) -> int:
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        return np.array(self.weights)


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_json(obj, what: str) -> np.ndarray:
    try:
        rows = []
        for row in obj:
            rows.append([complex(float(v[0]), float(v[1])) for v in row])
        m = np.array(rows, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{what}: entries must be [re, im] pairs in row-major rows") from exc
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ParseError(f"{what}: expected a nonempty 2-D matrix")
    if len({len(row) for row in obj}) != 1:
        raise ParseError(f"{what}: rows have inconsistent lengths")
    return m


def load_channel_set(source: Union[str, bytes, IO]) -> ChannelSet:
    """Parse a ChannelSet from a JSON byte stream, file object, or path."""
    try:
        if isinstance(source, (str, bytes)):
            with open(source, "rb") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
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
    power = doc["power"]
    if not isinstance(power, (int, float)) or isinstance(power, bool):
        raise InvalidPower(f"power must be a number, got {power!r}")
    return ChannelSet(users, eve, float(power))


def save_channel_set(ch: ChannelSet, sink: Union[str, IO]) -> None:
    """Write a ChannelSet in the documented JSON schema."""
    doc = {
        "power": ch.power,
        "users": [{"H": matrix_to_json(h)} for h in ch.user_channels],
        "eavesdropper": matrix_to_json(ch.eavesdropper),
    }
    if isinstance(sink, str):
        with open(sink, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    else:
        json.dump(doc, sink, indent=1)
        sink.write("\n")


def sample_channel_set(seed: int, K: int, n_t: int,
                       n_k: Union[int, Sequence[int]], n_e: int,
                       power: float) -> ChannelSet:
    """Draw an i.i.d. complex Gaussian instance, deterministic in ``seed``."""
    if isinstance(n_k, int):
        n_k = [n_k] * K
    if len(n_k) != K:
        raise LengthMismatch(f"n_k has {len(n_k)} entries for K={K}")
    rng = np.random.default_rng(seed)

    def draw(rows: int, cols: int) -> np.ndarray:
        return (rng.standard_normal((rows, cols))
                + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)

    users = [draw(nk, n_t) for nk in n_k]
    eve = draw(n_e, n_t)
    return ChannelSet(users, eve, power)


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
