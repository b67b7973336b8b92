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

Each rate is one kernel on channels and blocks already by position, which
checks nothing (``_log_ratios``, ``dpc_rates_arrays``, ``mac_rates_arrays``,
``mac_objective_arrays``), plus one public wrapper that validates the plan
against channels and order (``by_position``) and returns rates by user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .channel import ChannelSet, WeightVector
from .errors import DimensionMismatch, integer_at_least
from .linalg import (PSD_TOL, frozen, herm, logdet_i_plus, min_eigenvalue,
                     random_psd)

BC = "bc"
MAC = "mac"
# share of the budget a plan's power may exceed it by and still count as feasible
BUDGET_SLACK = 1e-6


@dataclass(frozen=True)
class EncodingOrder:
    """Permutation of 1-based user labels; entry k-1 is the user at position k."""

    permutation: tuple[int, ...]

    def __init__(self, permutation: Sequence[int]):
        perm = tuple(integer_at_least(p, 1, "an order entry") for p in permutation)
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
        self._set(side, matrices, check_psd=True)

    @classmethod
    def _of_projected(cls, side: str, matrices: Sequence[np.ndarray]) -> "CovariancePlan":
        """A plan of ``project_psd`` output, PSD by construction, built
        without the eigenvalue check."""
        plan = cls.__new__(cls)
        plan._set(side, matrices, check_psd=False)
        return plan

    def _set(self, side: str, matrices: Sequence[np.ndarray], check_psd: bool) -> None:
        if side not in (BC, MAC):
            raise ValueError(f"side must be {BC!r} or {MAC!r}, got {side!r}")
        mats = tuple(frozen(m) for m in matrices)
        if not mats:
            raise DimensionMismatch("a plan needs at least one matrix")
        for idx, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatch(f"matrix {idx + 1} is not square: {m.shape}")
            if check_psd and not m.size:
                raise DimensionMismatch(f"matrix {idx + 1} is empty")
            if check_psd and not np.isfinite(m).all():
                raise ValueError(f"matrix {idx + 1} has a non-finite entry")
            if check_psd and min_eigenvalue(m) < -PSD_TOL * max(1.0, float(np.trace(m).real)):
                raise ValueError(f"matrix {idx + 1} is not PSD within tolerance")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "matrices", mats)

    @property
    def total_trace(self) -> float:
        return float(sum(np.trace(m).real for m in self.matrices))

    def validate_for(self, ch: ChannelSet, check_power: bool = False) -> None:
        """Check shapes against a channel set; optionally the power budget.

        A plan may exceed the budget by ``BUDGET_SLACK`` of it.  The power
        check is opt-in because Lagrangian-based optimization legitimately
        evaluates rates of transiently infeasible plans.
        """
        if len(self.matrices) != ch.num_users:
            raise DimensionMismatch(
                f"plan has {len(self.matrices)} matrices for {ch.num_users} users")
        for idx, (m, want) in enumerate(zip(self.matrices, _block_sizes(self.side, ch))):
            if m.shape[0] != want:
                raise DimensionMismatch(
                    f"user {idx + 1} {self.side} covariance is {m.shape[0]}x{m.shape[0]}, "
                    f"expected {want}x{want}")
        if check_power and self.total_trace - ch.power > BUDGET_SLACK * ch.power:
            raise ValueError(
                f"total trace {self.total_trace:.6g} exceeds power budget {ch.power:.6g}")

    @classmethod
    def zero(cls, side: str, ch: ChannelSet) -> "CovariancePlan":
        return cls._of_projected(side, [np.zeros((d, d), dtype=complex)
                                        for d in _block_sizes(side, ch)])


def _block_sizes(side: str, ch: ChannelSet) -> list[int]:
    """Each user's covariance size on ``side``: n_t downlink, n_k uplink."""
    return [ch.n_t] * ch.num_users if side == BC else list(ch.n_k)


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
    """Per position k: log det(I + H_k suf[k] H_k^H) - log det(I + H_k suf[k+1] H_k^H),
    where the last suffix is zero, so the last position's second term is 0."""
    out = []
    for k, hk in enumerate(H):
        hkh = herm(hk)
        ld = logdet_i_plus(hk @ suf[k] @ hkh)
        out.append(ld - logdet_i_plus(hk @ suf[k + 1] @ hkh) if k + 1 < len(H) else ld)
    return np.array(out)


def dpc_rates_arrays(H: Sequence[np.ndarray], G: np.ndarray,
                     q_by_pos: Sequence[np.ndarray]) -> np.ndarray:
    """Secrecy rates by position for position-ordered channels/covariances.

    The eavesdropper's log-dets, one per suffix sum but the last, zero one,
    serve two positions each.
    """
    suf = suffix_sums(q_by_pos)
    gh = herm(G)
    eve = [logdet_i_plus(G @ s @ gh) for s in suf[:-1]]
    eve = np.array(eve + [np.zeros_like(eve[-1])])
    return _log_ratios(H, suf) - (eve[:-1] - eve[1:])


def mac_rates_arrays(H: Sequence[np.ndarray], s_by_pos: Sequence[np.ndarray]) -> np.ndarray:
    """Uplink rates by position for position-ordered channels/covariances."""
    terms = [herm(hk) @ s @ hk for hk, s in zip(H, s_by_pos)]
    prefix = suffix_sums(terms[::-1])[::-1]  # prefix[k] = sum of terms[:k]
    return np.diff([0.0] + [logdet_i_plus(p) for p in prefix[1:]])


def mac_objective_arrays(H: Sequence[np.ndarray], ge_by_pos: Sequence[np.ndarray],
                         s_by_pos: Sequence[np.ndarray], w_by_pos: np.ndarray) -> float:
    """:func:`mac_side_objective` on position-ordered lists, weights too."""
    total = 0.0
    tail_h = suffix_sums([herm(h) @ s @ h for h, s in zip(H, s_by_pos)])
    tail_g = suffix_sums([herm(ge) @ s @ ge for ge, s in zip(ge_by_pos, s_by_pos)])
    for k in range(len(H)):
        dw = w_by_pos[k] - (w_by_pos[k - 1] if k > 0 else 0.0)
        if dw == 0.0:
            continue
        total += dw * (logdet_i_plus(tail_h[k]) - logdet_i_plus(tail_g[k]))
    return float(total)


def positions(ch: ChannelSet, order: EncodingOrder) -> tuple[np.ndarray, list[np.ndarray]]:
    """Check that ``order`` covers the channels' users; return the
    position-to-user map and the channels by position."""
    if len(order) != ch.num_users:
        raise DimensionMismatch(
            f"order ({len(order)}) and channels ({ch.num_users}) disagree on the user count")
    idx = order.zero_based
    return idx, [ch.user_channels[u] for u in idx]


def by_position(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan, side: str):
    """Check a ``side`` plan against the channels and order; return the
    position-to-user map and the channels and covariances by position."""
    if plan.side != side:
        raise DimensionMismatch(f"expected a {side} plan, got {plan.side}")
    idx, H = positions(ch, order)
    plan.validate_for(ch)
    return idx, H, [plan.matrices[u] for u in idx]


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
    return _rate_point(_log_ratios(H, suffix_sums(mats)), idx)


def mac_rates(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan) -> RatePoint:
    """Rates in the dual uplink under the same position ordering; position
    k is interfered by positions < k."""
    idx, H, mats = by_position(ch, order, plan, MAC)
    return _rate_point(mac_rates_arrays(H, mats), idx)


def weighted_sum(rates: RatePoint, w: Union[WeightVector, Sequence[float]]) -> float:
    """Weighted sum of per-user rates; raw weights are normalized as a
    :class:`WeightVector`."""
    return float(WeightVector.of(w, len(rates.per_user)).as_array() @ np.array(rates.per_user))


def mac_side_objective(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                       effective_eve: Sequence[np.ndarray],
                       w: Union[WeightVector, Sequence[float]]) -> float:
    """Uplink-side weighted objective with effective eavesdropper channels.

    Evaluates, over positions k with weight differences
    ``w_{pi_k} - w_{pi_{k-1}}`` (and ``w_{pi_0} = 0``)::

        logdet(I + sum_{j>=k} H_j^H S_j H_j) - logdet(I + sum_{j>=k} Ge_j^H S_j Ge_j)

    where ``Ge_j`` are the per-position effective eavesdropper channels built
    by the duality module for this plan and order.  With those channels this
    equals the downlink weighted secrecy sum of the dual plan.  Raw weights
    are normalized as a :class:`WeightVector`.
    """
    idx, H, mats = by_position(ch, order, plan, MAC)
    K = ch.num_users
    if len(effective_eve) != K:
        raise DimensionMismatch(
            f"{len(effective_eve)} effective eavesdropper channels for {K} positions")
    weights = WeightVector.of(w, K).as_array()[idx]
    for k, ge in enumerate(effective_eve):
        if ge.shape != (H[k].shape[0], ch.n_e):
            raise DimensionMismatch(
                f"position {k + 1}: effective eavesdropper is {ge.shape}, "
                f"expected {(H[k].shape[0], ch.n_e)}")
    return mac_objective_arrays(H, effective_eve, mats, weights)


def random_plan(side: str, dims: Sequence[int], budget: float,
                rng: np.random.Generator) -> CovariancePlan:
    """Random PSD plan, one ``dims[u]``-square matrix per user, whose total
    trace is a uniform 20-100% share of ``budget``: the checked plan of
    :func:`_random_blocks`."""
    return CovariancePlan(side, _random_blocks(dims, budget, rng))


def _random_blocks(dims: Sequence[int], budget: float,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """The draws of :func:`random_plan` as plain arrays: ``random_psd`` blocks
    times one scale, PSD by construction for a positive ``budget``."""
    mats = [random_psd(d, rng) for d in dims]
    total = sum(float(m.trace().real) for m in mats)
    scale = budget * (0.2 + 0.8 * rng.random()) / max(total, 1e-12)
    return [m * scale for m in mats]
