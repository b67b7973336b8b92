"""Downlink/uplink covariance transformations and effective eavesdropper channels.

For position k under encoding order ``pi`` define

* ``C_k = I + H_{pi_k} (sum of later-position downlink covariances) H_{pi_k}^H``
  (the downlink interference-plus-noise seen by the user at position k), and
* an uplink interference ladder ``D_k`` that is either
  ``I + sum of earlier-position H^H S H`` (``mac_ladder="preceding"``, the
  classic pairing in which uplink position k is interfered by positions < k)
  or ``I + sum of later-position H^H S H`` (``mac_ladder="following"``).

With the economy SVD ``D_k^{-1/2} H_{pi_k}^H C_k^{-1/2} = E L F^H`` the two
sides map into each other by

    S_k = C^{-1/2} F E^H D^{1/2} Q_k D^{1/2} E F^H C^{-1/2}
    Q_k = D^{-1/2} E F^H C^{1/2} S_k C^{1/2} F E^H D^{-1/2}

which preserves the per-position rate exactly and, for plans that put no
power into subspaces their own channel cannot see, the total trace as well.

The "preceding" ladder reproduces the textbook per-user rate equality
between ``bc_rates`` and ``mac_rates`` at the same order.  The "following"
ladder is the one under which the uplink-side weighted objective
(``rates.mac_side_objective``) with effective eavesdropper channels

    Ge_k = C_k^{1/2} F_k E_k^H D_k^{-1/2} G^H        (shape n_k x n_e)

equals the downlink weighted secrecy sum of the dual plan, term by term.

Both directions run one ladder sweep.  The ladder of the given plan's side
is summed up front; the other ladder grows from the covariances mapped so
far, so positions are visited in its direction, one after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelSet, WeightVector, sample_channel_set
from .linalg import (SvdTriple, herm, hermitize, project_psd, psd_inv_sqrt,
                     psd_sqrt, svd_square_diag)
from .rates import (BC, MAC, CovariancePlan, EncodingOrder, bc_rates,
                    by_position, by_user, dpc_secrecy_rates, mac_rates,
                    mac_side_objective, random_plan, weighted_sum)

PRECEDING = "preceding"
FOLLOWING = "following"


@dataclass(frozen=True)
class DualityContext:
    """Per-position ladder matrices, SVD factors and effective eavesdropper
    channels for one (channels, order, plan) triple.

    All tuples are indexed by position (not by user).  ``c_list[k]`` is
    n_{pi_k} x n_{pi_k}; ``d_list[k]`` is n_t x n_t; ``effective_eve[k]`` is
    n_{pi_k} x n_e.
    """

    order: EncodingOrder
    mac_ladder: str
    c_list: tuple[np.ndarray, ...]
    d_list: tuple[np.ndarray, ...]
    svd_list: tuple[SvdTriple, ...]
    effective_eve: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.mac_ladder not in (PRECEDING, FOLLOWING):
            raise ValueError(f"unknown mac_ladder {self.mac_ladder!r}")
        K = len(self.order)
        last_c = self.c_list[K - 1]
        if not np.allclose(last_c, np.eye(last_c.shape[0]), atol=1e-9):
            raise ValueError("ladder inconsistency: C at the last position must be I")
        edge = self.d_list[0] if self.mac_ladder == PRECEDING else self.d_list[K - 1]
        if not np.allclose(edge, np.eye(edge.shape[0]), atol=1e-9):
            raise ValueError("ladder inconsistency: D at the empty-ladder position must be I")


def _position_transform(hk: np.ndarray, G: np.ndarray, C: np.ndarray, D: np.ndarray,
                        cov: np.ndarray, downlink: bool):
    """Transform one position's covariance ``cov`` to the other side;
    ``downlink`` says which side it is on.

    Returns (other-side covariance, svd, effective eavesdropper channel).
    """
    dm = psd_inv_sqrt(D)
    dp = psd_sqrt(D)
    cm = psd_inv_sqrt(C)
    cp = psd_sqrt(C)
    svd = svd_square_diag(dm @ herm(hk) @ cm)
    e, f = svd.left, svd.right
    ge = cp @ f @ herm(e) @ dm @ herm(G)
    if downlink:
        out = cm @ f @ herm(e) @ dp @ cov @ dp @ e @ herm(f) @ cm
    else:
        out = dm @ e @ herm(f) @ cp @ cov @ cp @ f @ herm(e) @ dm
    return project_psd(hermitize(out)), svd, ge


def _c_ladder(H: Sequence[np.ndarray], Q: Sequence[np.ndarray]):
    """(k, C_k) from the last position back; Q[k] is read after C_k is yielded."""
    tail = np.zeros((H[0].shape[1],) * 2, dtype=complex)
    for k in range(len(H) - 1, -1, -1):
        yield k, hermitize(np.eye(H[k].shape[0]) + H[k] @ tail @ herm(H[k]))
        tail = tail + Q[k]


def _d_ladder(H: Sequence[np.ndarray], S: Sequence[np.ndarray], positions):
    """(k, D_k) along the uplink ladder; S[k] is read after D_k is yielded."""
    d = np.eye(H[0].shape[1], dtype=complex)
    for k in positions:
        yield k, d
        d = hermitize(d + herm(H[k]) @ S[k] @ H[k])


def _ladder_sweep(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                  side: str, mac_ladder: str):
    """Map a ``side`` plan to the other side, one position at a time.

    The ladder of the given side (C for a downlink plan, D for an uplink
    one) is summed up front.  The other ladder grows from the mapped
    covariances, so the walk follows its direction: D along ``mac_ladder``,
    C from the last position back.

    Returns the position-to-user map, the (C, D, svd, effective eavesdropper)
    lists and the mapped covariances, all by position.
    """
    if mac_ladder not in (PRECEDING, FOLLOWING):
        raise ValueError(f"unknown mac_ladder {mac_ladder!r}")
    idx, H, given = by_position(ch, order, plan, side)
    K = len(H)
    mapped: list = [None] * K
    along = range(K) if mac_ladder == PRECEDING else range(K - 1, -1, -1)
    downlink = side == BC
    if downlink:
        fixed, walk = dict(_c_ladder(H, given)), _d_ladder(H, mapped, along)
    else:
        fixed, walk = dict(_d_ladder(H, given, along)), _c_ladder(H, mapped)
    c_list: list = [None] * K
    d_list: list = [None] * K
    svd_list: list = [None] * K
    eve_list: list = [None] * K
    for k, grown in walk:
        c, d = (fixed[k], grown) if downlink else (grown, fixed[k])
        mapped[k], svd_list[k], eve_list[k] = _position_transform(
            H[k], ch.eavesdropper, c, d, given[k], downlink)
        c_list[k], d_list[k] = c, d
    return idx, (c_list, d_list, svd_list, eve_list), mapped


def _sweep(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan, side: str,
           mac_ladder: str = PRECEDING) -> tuple[DualityContext, CovariancePlan]:
    """The context and the other side's plan from one ladder sweep."""
    idx, ladders, mapped = _ladder_sweep(ch, order, plan, side, mac_ladder)
    return (DualityContext(order, mac_ladder, *map(tuple, ladders)),
            CovariancePlan(MAC if side == BC else BC, by_user(mapped, idx)))


def bc_to_mac(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
              mac_ladder: str = PRECEDING) -> CovariancePlan:
    """Map a downlink plan to the rate-equivalent uplink plan."""
    return _sweep(ch, order, plan, BC, mac_ladder)[1]


def mac_to_bc(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
              mac_ladder: str = PRECEDING) -> CovariancePlan:
    """Map an uplink plan to the rate-equivalent downlink plan."""
    return _sweep(ch, order, plan, MAC, mac_ladder)[1]


def build_context_from_bc(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                          mac_ladder: str = PRECEDING) -> DualityContext:
    """Ladder matrices, SVDs and effective eavesdropper channels for a downlink plan."""
    return _sweep(ch, order, plan, BC, mac_ladder)[0]


def build_context_from_mac(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                           mac_ladder: str = PRECEDING) -> DualityContext:
    """Same as build_context_from_bc but starting from an uplink plan."""
    return _sweep(ch, order, plan, MAC, mac_ladder)[0]


def effective_eve_channels(ctx: DualityContext) -> list[np.ndarray]:
    """Per-position effective eavesdropper channels of a built context."""
    return [np.array(g) for g in ctx.effective_eve]


def wsr_equivalence_pair(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                         w: WeightVector) -> tuple[float, float]:
    """(uplink objective, downlink weighted secrecy sum) for an uplink plan.

    Uses the "following" ladder, under which the two numbers agree exactly;
    the returned pair is the verification oracle for that equivalence.
    """
    ctx, bc_plan = _sweep(ch, order, plan, MAC, FOLLOWING)
    obj = mac_side_objective(ch, order, plan, effective_eve_channels(ctx), w)
    wsr = weighted_sum(dpc_secrecy_rates(ch, order, bc_plan), w)
    return obj, wsr


def duality_property_ensemble(num_instances: int = 200, seed: int = 0,
                              tol: float = 1e-8) -> dict:
    """Randomized verification of the transform contracts.

    Each instance draws K in {1,2,3}, n_t in {1,2,3}, per-user n_k in
    {1,2,3}, n_e in {1,2}, a random order and a random plan with total trace
    at most P.  Plans are generated on the side whose antenna counts make
    waste impossible (uplink side when n_k <= n_t, downlink side when
    n_k >= n_t); outside that regime a rate-preserving transform provably
    cannot also preserve total power.  Checks per instance:

    * per-user downlink/uplink rate equality after one transform,
    * total-trace preservation,
    * per-user rate preservation over a full round trip,
    * uplink-objective equivalence with effective eavesdropper channels,
    * ladder eigenvalue floor (C, D are identity plus PSD).
    """
    rng = np.random.default_rng(seed)
    report = {
        "instances": num_instances,
        "tolerance": tol,
        "max_rate_error": 0.0,
        "max_trace_error": 0.0,
        "max_roundtrip_error": 0.0,
        "max_wsr_equivalence_error": 0.0,
        "min_ladder_eigenvalue": np.inf,
        "failures": 0,
    }
    for _ in range(num_instances):
        K = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        n_e = int(rng.integers(1, 3))
        mac_first = bool(rng.random() < 0.5)
        if mac_first:
            n_k = [int(rng.integers(1, n_t + 1)) for _ in range(K)]
        else:
            n_k = [int(rng.integers(n_t, 4)) for _ in range(K)]
        power = float(0.5 + 2.0 * rng.random())
        ch = sample_channel_set(int(rng.integers(2 ** 31)), K, n_t, n_k, n_e, power)
        order = EncodingOrder(rng.permutation(K) + 1)
        w = WeightVector(rng.random(K) + 0.05)

        if mac_first:
            plan_mac = random_plan(MAC, n_k, power, rng)
            plan_bc = mac_to_bc(ch, order, plan_mac)
            ctx, plan_mac_rt = _sweep(ch, order, plan_bc, BC)
            r_bc = np.array(bc_rates(ch, order, plan_bc).per_user)
            r_mac = np.array(mac_rates(ch, order, plan_mac).per_user)
            r_rt = np.array(mac_rates(ch, order, plan_mac_rt).per_user)
            trace_err = abs(plan_mac.total_trace - plan_bc.total_trace)
            eq_plan = plan_mac
        else:
            plan_bc = random_plan(BC, [n_t] * K, power, rng)
            ctx, plan_mac = _sweep(ch, order, plan_bc, BC)
            plan_bc_rt = mac_to_bc(ch, order, plan_mac)
            r_bc = np.array(bc_rates(ch, order, plan_bc).per_user)
            r_mac = np.array(mac_rates(ch, order, plan_mac).per_user)
            r_rt = np.array(bc_rates(ch, order, plan_bc_rt).per_user)
            trace_err = abs(plan_bc.total_trace - plan_mac.total_trace)
            eq_plan = plan_mac

        rate_err = float(np.max(np.abs(r_bc - r_mac)))
        rt_err = float(np.max(np.abs(r_bc - r_rt)))
        obj, wsr = wsr_equivalence_pair(ch, order, eq_plan, w)
        eq_err = abs(obj - wsr)

        floor = min(min(np.linalg.eigvalsh(c)[0] for c in ctx.c_list),
                    min(np.linalg.eigvalsh(d)[0] for d in ctx.d_list))

        report["max_rate_error"] = max(report["max_rate_error"], rate_err)
        report["max_trace_error"] = max(report["max_trace_error"], trace_err)
        report["max_roundtrip_error"] = max(report["max_roundtrip_error"], rt_err)
        report["max_wsr_equivalence_error"] = max(
            report["max_wsr_equivalence_error"], eq_err)
        report["min_ladder_eigenvalue"] = min(report["min_ladder_eigenvalue"], float(floor))
        if max(rate_err, trace_err, rt_err, eq_err) > tol or floor < 1 - 1e-10:
            report["failures"] += 1
    report["passed"] = report["failures"] == 0
    return report
