"""Rate expressions for successively-encoded secure broadcasting.

Conventions, used consistently across the package:

* An encoding order is a permutation ``pi`` of the 1-based user labels
  {1..K}; position k (1-based) carries user ``pi_k``.  The user encoded at
  position k is interfered by the users at positions k+1..K (successive
  encoding pre-cancels everything encoded earlier), so "empty tail sums"
  occur at the last position.
* Downlink (BC) covariance matrices are n_t x n_t, one per user.  Uplink
  (MAC) covariance matrices are n_k x n_k, one per user, because in the dual
  uplink each user transmits from its own n_k antennas.
* All logs are natural, so rates are in nats/sec/Hz.
* Per-user secrecy rates are the downlink log-ratio term of the user minus
  the corresponding log-ratio term of the eavesdropper.

Rates are returned raw (possibly slightly negative); clamping to zero
happens only at reporting boundaries so that optimization code sees
informative values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .channel import ChannelSet, WeightVector
from .errors import DimensionMismatch, LengthMismatch
from .linalg import (PSD_TOL, frozen, herm, logdet_i_plus, min_eigenvalue,
                     random_psd)

BC = "bc"
MAC = "mac"


@dataclass(frozen=True)
class EncodingOrder:
    """Permutation of 1-based user labels; entry k-1 is the user at position k."""

    permutation: tuple[int, ...]

    def __init__(self, permutation: Sequence[int]):
        perm = tuple(int(p) for p in permutation)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{len(perm)}")
        object.__setattr__(self, "permutation", perm)

    @classmethod
    def identity(cls, K: int) -> "EncodingOrder":
        return cls(range(1, K + 1))

    def __len__(self) -> int:
        return len(self.permutation)

    @property
    def zero_based(self) -> np.ndarray:
        return np.array(self.permutation) - 1

    def reverse(self) -> "EncodingOrder":
        return EncodingOrder(self.permutation[::-1])

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.permutation) + "]"


@dataclass(frozen=True)
class CovariancePlan:
    """Per-user transmit covariance matrices for one side of the duality.

    ``matrices[u]`` belongs to user u+1 regardless of any encoding order.
    Downlink plans hold n_t x n_t matrices; uplink plans hold n_k x n_k.
    """

    side: str
    matrices: tuple[np.ndarray, ...]

    def __init__(self, side: str, matrices: Sequence[np.ndarray]):
        if side not in (BC, MAC):
            raise ValueError(f"side must be {BC!r} or {MAC!r}, got {side!r}")
        mats = tuple(frozen(m) for m in matrices)
        if not mats:
            raise DimensionMismatch("a plan needs at least one matrix")
        for idx, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatch(f"matrix {idx + 1} is not square: {m.shape}")
            if min_eigenvalue(m) < -PSD_TOL * max(1.0, float(np.trace(m).real)):
                raise ValueError(f"matrix {idx + 1} is not PSD within tolerance")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return len(self.matrices)

    @property
    def total_trace(self) -> float:
        return float(sum(np.trace(m).real for m in self.matrices))

    def validate_for(self, ch: ChannelSet, check_power: bool = False) -> None:
        """Check shapes against a channel set; optionally the power budget.

        The power check is opt-in because Lagrangian-based optimization
        legitimately evaluates rates of transiently infeasible plans.
        """
        if len(self.matrices) != ch.num_users:
            raise DimensionMismatch(
                f"plan has {len(self.matrices)} matrices for {ch.num_users} users")
        for idx, m in enumerate(self.matrices):
            want = ch.n_t if self.side == BC else ch.n_k[idx]
            if m.shape[0] != want:
                raise DimensionMismatch(
                    f"user {idx + 1} {self.side} covariance is {m.shape[0]}x{m.shape[0]}, "
                    f"expected {want}x{want}")
        if check_power and self.total_trace > ch.power + 1e-8:
            raise ValueError(
                f"total trace {self.total_trace:.6g} exceeds power budget {ch.power:.6g}")

    @classmethod
    def zero(cls, side: str, ch: ChannelSet) -> "CovariancePlan":
        dims = [ch.n_t] * ch.num_users if side == BC else list(ch.n_k)
        return cls(side, [np.zeros((d, d), dtype=complex) for d in dims])


@dataclass(frozen=True)
class RatePoint:
    """Per-user rates (nats/sec/Hz, indexed by user) and their weighted sum."""

    per_user: tuple[float, ...] = field(default=())
    weighted_sum: float = 0.0

    @property
    def sum_rate(self) -> float:
        return float(sum(self.per_user))

    def clamped(self) -> "RatePoint":
        """Copy with per-user rates floored at zero (reporting form)."""
        return RatePoint(tuple(max(0.0, r) for r in self.per_user), self.weighted_sum)


def suffix_sums(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """suffix[k] = sum of mats[k:], with suffix[K] the zero matrix."""
    out = [np.zeros(mats[0].shape, dtype=complex)]
    for m in reversed(mats):
        out.append(out[-1] + m)
    out.reverse()
    return out


def _log_ratios(H: Sequence[np.ndarray], suf: Sequence[np.ndarray]) -> np.ndarray:
    """Per position k: log det(I + H_k suf[k] H_k^H) - log det(I + H_k suf[k+1] H_k^H)."""
    return np.array([
        logdet_i_plus(hk @ suf[k] @ herm(hk)) - logdet_i_plus(hk @ suf[k + 1] @ herm(hk))
        for k, hk in enumerate(H)])


def dpc_rates_arrays(H: Sequence[np.ndarray], G: np.ndarray,
                     q_by_pos: Sequence[np.ndarray]) -> np.ndarray:
    """Secrecy rates by position for position-ordered channels/covariances."""
    suf = suffix_sums(q_by_pos)
    return _log_ratios(H, suf) - _log_ratios([G] * len(H), suf)


def bc_rates_arrays(H: Sequence[np.ndarray],
                    q_by_pos: Sequence[np.ndarray]) -> np.ndarray:
    """Downlink rates by position (no eavesdropper term)."""
    return _log_ratios(H, suffix_sums(q_by_pos))


def mac_rates_arrays(H: Sequence[np.ndarray],
                     s_by_pos: Sequence[np.ndarray]) -> np.ndarray:
    """Uplink rates by position; position k is interfered by positions < k."""
    n_t = H[0].shape[1]
    acc = np.zeros((n_t, n_t), dtype=complex)
    prev = 0.0
    rates = np.empty(len(H))
    for k, hk in enumerate(H):
        acc = acc + herm(hk) @ s_by_pos[k] @ hk
        cur = logdet_i_plus(acc)
        rates[k] = cur - prev
        prev = cur
    return rates


def by_position(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                side: str):
    """Check a ``side`` plan against the channels and order; return the
    position-to-user map and the channels and covariances by position."""
    if plan.side != side:
        raise DimensionMismatch(f"expected a {side} plan, got {plan.side}")
    if len(order) != ch.num_users or len(plan) != ch.num_users:
        raise DimensionMismatch(
            f"order ({len(order)}), plan ({len(plan)}) and channels "
            f"({ch.num_users}) disagree on the user count")
    plan.validate_for(ch)
    idx = order.zero_based
    H = [ch.user_channels[u] for u in idx]
    mats = [plan.matrices[u] for u in idx]
    return idx, H, mats


def by_user(by_pos: Sequence, idx: np.ndarray) -> list:
    """Undo the position relabelling: entry ``idx[k]`` of the result is ``by_pos[k]``."""
    out: list = [None] * len(by_pos)
    for pos, u in enumerate(idx):
        out[u] = by_pos[pos]
    return out


def _rate_point(by_pos: np.ndarray, idx: np.ndarray) -> RatePoint:
    per_user = by_user(by_pos, idx)
    return RatePoint(tuple(per_user), float(sum(per_user)))


def dpc_secrecy_rates(ch: ChannelSet, order: EncodingOrder,
                      plan: CovariancePlan) -> RatePoint:
    """Per-user secrecy rates under successive encoding in the given order;
    the RatePoint's weighted_sum field holds the plain sum."""
    idx, H, mats = by_position(ch, order, plan, BC)
    return _rate_point(dpc_rates_arrays(H, ch.eavesdropper, mats), idx)


def bc_rates(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan) -> RatePoint:
    """Downlink rates without secrecy (the eavesdropper is ignored)."""
    idx, H, mats = by_position(ch, order, plan, BC)
    return _rate_point(bc_rates_arrays(H, mats), idx)


def mac_rates(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan) -> RatePoint:
    """Rates in the dual uplink under the same position ordering."""
    idx, H, mats = by_position(ch, order, plan, MAC)
    return _rate_point(mac_rates_arrays(H, mats), idx)


def weighted_sum(rates: RatePoint, w: WeightVector) -> float:
    """Weighted sum of per-user rates."""
    if len(rates.per_user) != len(w):
        raise LengthMismatch(
            f"{len(rates.per_user)} rates vs {len(w)} weights")
    return float(w.as_array() @ np.array(rates.per_user))


def mac_side_objective(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                       effective_eve: Sequence[np.ndarray],
                       w: Union[WeightVector, Sequence[float]]) -> float:
    """Uplink-side weighted objective with effective eavesdropper channels.

    Evaluates, over positions k with weight differences
    ``w_{pi_k} - w_{pi_{k-1}}`` (and ``w_{pi_0} = 0``)::

        logdet(I + sum_{j>=k} H_j^H S_j H_j) - logdet(I + sum_{j>=k} Ge_j^H S_j Ge_j)

    where ``Ge_j`` are the per-position effective eavesdropper channels built
    by the duality module for this plan and order.  With those channels this
    equals the downlink weighted secrecy sum of the dual plan.
    """
    idx, H, mats = by_position(ch, order, plan, MAC)
    K = ch.num_users
    if len(effective_eve) != K:
        raise DimensionMismatch(
            f"{len(effective_eve)} effective eavesdropper channels for {K} positions")
    weights = w.as_array() if isinstance(w, WeightVector) else np.asarray(w, dtype=float)
    if weights.size != K:
        raise LengthMismatch(f"{weights.size} weights for {K} users")
    weights = weights[idx]
    n_e = ch.n_e
    for k, ge in enumerate(effective_eve):
        if ge.shape != (H[k].shape[0], n_e):
            raise DimensionMismatch(
                f"position {k + 1}: effective eavesdropper is {ge.shape}, "
                f"expected {(H[k].shape[0], n_e)}")
    total = 0.0
    tail_h = suffix_sums([herm(h) @ s @ h for h, s in zip(H, mats)])
    tail_g = suffix_sums([herm(ge) @ s @ ge for ge, s in zip(effective_eve, mats)])
    for k in range(K):
        dw = weights[k] - (weights[k - 1] if k > 0 else 0.0)
        if dw == 0.0:
            continue
        total += dw * (logdet_i_plus(tail_h[k]) - logdet_i_plus(tail_g[k]))
    return float(total)


def random_plan(side: str, dims: Sequence[int], budget: float,
                rng: np.random.Generator) -> CovariancePlan:
    """Random PSD plan, one ``dims[u]``-square matrix per user, whose total
    trace is a uniform 20-100% share of ``budget``."""
    mats = [random_psd(d, rng) for d in dims]
    total = sum(float(np.trace(m).real) for m in mats)
    scale = budget * (0.2 + 0.8 * rng.random()) / max(total, 1e-12)
    return CovariancePlan(side, [m * scale for m in mats])
