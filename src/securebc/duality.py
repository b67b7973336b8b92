"""Downlink/uplink covariance transformations and effective eavesdropper channels.

For position k under encoding order ``pi`` define

* ``C_k = I + H_{pi_k} (sum of later-position downlink covariances) H_{pi_k}^H``
  (the downlink interference-plus-noise seen by the user at position k), and
* an uplink interference ladder ``D_k`` that is either
  ``I + sum of earlier-position H^H S H`` (``mac_ladder="preceding"``, the
  classic pairing in which uplink position k is interfered by positions < k)
  or ``I + sum of later-position H^H S H`` (``mac_ladder="following"``).

With the economy SVD ``D_k^{-1/2} H_{pi_k}^H C_k^{-1/2} = E L F^H`` the two
sides map into each other by one congruence each, which defines the map,

    S_k = T Q_k T^H,   T = C^{-1/2} F E^H D^{1/2}
    Q_k = U S_k U^H,   U = D^{-1/2} E F^H C^{1/2}

and the effective eavesdropper channel is ``Ge_k = U^H G^H`` (n_k x n_e).
This preserves the per-position rate exactly and, for plans that put no
power into subspaces their own channel cannot see, the total trace as well.

If that matrix has full rank min(n_k, n_t), ``F E^H`` is its polar factor and
one matrix geometric mean (``linalg.inv_geometric_mean``) gives both factors; the
SVD form runs only where the mean is undefined (a rank-deficient channel, or
outside the 2x2 mean's conditioning guard):

    n_k <= n_t:  A = H D^-1 H^H,  Gam = (C # A)^-1,  T = Gam H,  U = D^-1 H^H Gam C

and a position with n_t < n_k takes the same formula on its conjugate transpose
(H -> H^H and C <-> D), whose two factors are then U and T.

The "preceding" ladder reproduces the textbook per-user rate equality
between ``bc_rates`` and ``mac_rates`` at the same order.  The "following"
ladder is the one under which the uplink-side weighted objective
(``rates.mac_side_objective``) with the effective eavesdropper channels
equals the downlink weighted secrecy sum of the dual plan, term by term.

Each map is one ladder walk (``_walk``) on channels and blocks already by
position, which checks nothing, plus one public wrapper that validates the
plan against channels and order (``rates.by_position``) and relabels by user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelSet, WeightVector, _gaussian_channels
from .errors import integer_at_least, positive_number
from .linalg import (herm, inv_geometric_mean, inv_i_plus, min_eigenvalue, project_psd,
                     sqrt_pair, svd_square_diag)
from .rates import (BC, MAC, CovariancePlan, EncodingOrder, _log_ratios, _random_blocks,
                    by_position, by_user, dpc_rates_arrays, dpc_secrecy_rates,
                    mac_objective_arrays, mac_rates_arrays, mac_side_objective, suffix_sums,
                    total_trace, weighted_sum)

PRECEDING = "preceding"
FOLLOWING = "following"


@dataclass(frozen=True)
class DualityContext:
    """Per-position ladder matrices and effective eavesdropper channels for
    one (channels, order, plan) triple.

    All tuples are indexed by position (not by user).  ``c_list[k]`` is
    n_{pi_k} x n_{pi_k}; ``d_list[k]`` is n_t x n_t; ``effective_eve[k]`` is
    n_{pi_k} x n_e.
    """

    order: EncodingOrder
    mac_ladder: str
    c_list: tuple[np.ndarray, ...]
    d_list: tuple[np.ndarray, ...]
    effective_eve: tuple[np.ndarray, ...]

    def __post_init__(self):
        K = len(self.order)
        edge = self.d_list[_along(self.mac_ladder, K)[0]]
        for name, m in (("C at the last", self.c_list[K - 1]), ("D at the empty-ladder", edge)):
            if not np.abs(m - np.eye(len(m))).max() <= 1e-9:  # a NaN fails too
                raise ValueError(f"ladder inconsistency: {name} position must be I")


def _along(mac_ladder: str, K: int) -> range:
    """Positions in the order the uplink ladder grows."""
    if mac_ladder not in (PRECEDING, FOLLOWING):
        raise ValueError(f"unknown mac_ladder {mac_ladder!r}")
    return range(K) if mac_ladder == PRECEDING else range(K - 1, -1, -1)


def _position_transform(hk: np.ndarray, hkh: np.ndarray, C: np.ndarray, D: np.ndarray,
                        cov: np.ndarray, downlink: bool):
    """Transform one position's covariance ``cov`` to the other side;
    ``downlink`` says which side it is on, ``hkh`` is ``herm(hk)``.  Returns
    (other-side covariance, uplink-to-downlink factor U); an uplink ``cov``
    maps by U, so its walk never builds T."""
    wide = hk.shape[0] <= hk.shape[1]  # else the conjugate transpose's T and U are U and T
    h, hh, c, d = (hk, hkh, C, D) if wide else (hkh, hk, D, C)
    w = inv_i_plus(d - np.eye(len(d))) @ hh  # a ladder is I plus PSD terms
    gam = inv_geometric_mean(c, h @ w)
    if gam is not None:  # wide: T = gam h, U = w gam c
        u = w @ gam @ c if wide else gam @ h
        f = (gam @ h if wide else w @ gam @ c) if downlink else u
    else:
        dp, dm = sqrt_pair(D)
        cp, cm = sqrt_pair(C)
        svd = svd_square_diag(dm @ hkh @ cm)
        fe = svd.right @ herm(svd.left)
        u = dm @ herm(fe) @ cp
        f = cm @ fe @ dp if downlink else u
    return project_psd(f @ cov @ herm(f)), u


def _c_ladder(H: Sequence[np.ndarray], Hh: Sequence[np.ndarray], Q: Sequence[np.ndarray]):
    """(k, C_k) from the last position back; Q[k] is read after C_k is yielded."""
    tail, eyes = None, {n: np.eye(n, dtype=complex) for n in {h.shape[0] for h in H}}
    for k in range(len(H) - 1, -1, -1):
        eye = eyes[H[k].shape[0]]
        yield k, eye if tail is None else eye + H[k] @ tail @ Hh[k]
        tail = Q[k] if tail is None else tail + Q[k]


def _d_ladder(H: Sequence[np.ndarray], Hh: Sequence[np.ndarray], S: Sequence[np.ndarray],
              positions):
    """(k, D_k) along the uplink ladder; S[k] is read after D_k is yielded."""
    d = np.eye(H[0].shape[1], dtype=complex)
    for k in positions:
        yield k, d
        d = d + Hh[k] @ S[k] @ H[k]


def _walk(H: Sequence[np.ndarray], Hh: Sequence[np.ndarray], given: Sequence[np.ndarray],
          downlink: bool, mac_ladder: str = PRECEDING):
    """Map blocks ``given`` (downlink ones if ``downlink``) to the other side;
    return the mapped blocks, C and D ladders and U factors.  Channels ``H``,
    their ``herm`` ``Hh``, the blocks and the results are all by position.

    The ladder of the given side (C for a downlink plan, D for an uplink
    one) is summed up front.  The other ladder grows from the mapped
    covariances, so the walk follows its direction: D along ``mac_ladder``,
    C from the last position back.  Ladders are not re-symmetrized: every
    consumer reads one triangle or the averaged off-diagonal.
    """
    mapped, c_list, d_list, u_list = ([None] * len(H) for _ in range(4))
    along = _along(mac_ladder, len(H))
    if downlink:
        fixed, walk = dict(_c_ladder(H, Hh, given)), _d_ladder(H, Hh, mapped, along)
    else:
        fixed, walk = dict(_d_ladder(H, Hh, given, along)), _c_ladder(H, Hh, mapped)
    for k, grown in walk:
        c_list[k], d_list[k] = (fixed[k], grown) if downlink else (grown, fixed[k])
        mapped[k], u_list[k] = _position_transform(
            H[k], Hh[k], c_list[k], d_list[k], given[k], downlink)
    return mapped, c_list, d_list, u_list


def _sweep(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan, side: str,
           mac_ladder: str = PRECEDING, context: bool = True):
    """:func:`_walk` of a validated ``side`` plan: (context or None, other side's plan)."""
    idx, H, given = by_position(ch, order, plan, side)
    mapped, c, d, u = _walk(H, [herm(h) for h in H], given, side == BC, mac_ladder)
    ctx = DualityContext(order, mac_ladder, tuple(c), tuple(d),
                         tuple(herm(ch.eavesdropper @ x) for x in u)) if context else None
    return ctx, CovariancePlan._of_projected(MAC if side == BC else BC, by_user(mapped, idx))


def bc_to_mac(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
              mac_ladder: str = PRECEDING) -> CovariancePlan:
    """Map a downlink plan to the rate-equivalent uplink plan."""
    return _sweep(ch, order, plan, BC, mac_ladder, context=False)[1]


def mac_to_bc(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
              mac_ladder: str = PRECEDING) -> CovariancePlan:
    """Map an uplink plan to the rate-equivalent downlink plan."""
    return _sweep(ch, order, plan, MAC, mac_ladder, context=False)[1]


def build_context_from_bc(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                          mac_ladder: str = PRECEDING) -> DualityContext:
    """Ladder matrices and effective eavesdropper channels for a downlink plan."""
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
    obj = mac_side_objective(ch, order, plan, ctx.effective_eve, w)
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

    Each instance is drawn as plain arrays, by the same generator calls as
    ``sample_channel_set``, ``EncodingOrder(rng.permutation(K) + 1)``,
    ``WeightVector`` and ``random_plan`` in that order: the permutation is the
    position-to-user map and the weights are divided by their sum, as those
    constructors would, but nothing is checked again.  Its sweeps and rates run
    by position on the kernels the public maps and rates wrap (traces and
    weights add by user); at K = 1, where the two uplink ladders are one, the
    uplink plan's walk on it serves both.

    Raises ValueError unless num_instances is an integer >= 1, seed one >= 0, tol finite and > 0.
    """
    num_instances = integer_at_least(num_instances, 1, "num_instances")
    positive_number(tol, "tol")
    rng = np.random.default_rng(integer_at_least(seed, 0, "seed"))
    rows = []  # per instance: the four errors, then the ladder eigenvalue floor
    for _ in range(num_instances):
        K = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        n_e = int(rng.integers(1, 3))
        mac_first = bool(rng.random() < 0.5)
        lo, hi = (1, n_t + 1) if mac_first else (n_t, 4)
        n_k = [int(rng.integers(lo, hi)) for _ in range(K)]
        power = float(0.5 + 2.0 * rng.random())
        users, G = _gaussian_channels(int(rng.integers(2 ** 31)), n_t, n_k, n_e)
        idx = rng.permutation(K)  # position to user
        weights = rng.random(K) + 0.05
        weights = weights / weights.sum()
        H = [users[u] for u in idx]
        Hh = [herm(h) for h in H]
        drawn = _random_blocks(n_k if mac_first else [n_t] * K, power, rng)
        given = [drawn[u] for u in idx]
        # the uplink plan walks the preceding ladder once, drawn (to the downlink
        # plan) or mapped (back to the side the plan was drawn on)
        if mac_first:
            mac = given
            up = _walk(H, Hh, mac, False)
            bc = up[0]
            mapped, c_list, d_list, _ = _walk(H, Hh, bc, True)
            back = mapped
        else:
            bc = given
            mapped, c_list, d_list, _ = _walk(H, Hh, bc, True)
            mac = mapped
            up = _walk(H, Hh, mac, False)
            back = up[0]
        r_bc = _log_ratios(H, suffix_sums(bc))
        r_back = mac_rates_arrays(H, back) if mac_first else _log_ratios(H, suffix_sums(back))
        # one position makes one ladder: the following one is the preceding one
        bc_dual, _, _, u_list = up if K == 1 else _walk(H, Hh, mac, False, FOLLOWING)
        eve = [herm(G @ u) for u in u_list]
        secrecy = by_user(dpc_rates_arrays(H, G, bc_dual), idx)
        gap = mac_objective_arrays(H, eve, mac, weights[idx]) - float(weights @ np.array(secrecy))
        tr_bc, tr_mac = (float(total_trace(by_user(x, idx))) for x in (bc, mac))
        rows.append([np.max(np.abs(r_bc - mac_rates_arrays(H, mac))), abs(tr_bc - tr_mac),
                     np.max(np.abs(r_bc - r_back)), abs(gap),
                     np.min([min_eigenvalue(m) for m in c_list + d_list])])

    table = np.array(rows, dtype=float)
    errors, floors = table[:, :4], table[:, 4]
    # np.max and np.min keep a NaN, and the negated test counts it a failure
    failures = int(np.sum(~((errors <= tol).all(axis=1) & (floors >= 1 - 1e-10))))
    keys = ("max_rate_error", "max_trace_error", "max_roundtrip_error",
            "max_wsr_equivalence_error")
    return {"instances": num_instances, "tolerance": tol,
            **{key: float(v) for key, v in zip(keys, np.max(errors, axis=0))},
            "min_ladder_eigenvalue": float(np.min(floors)),
            "failures": failures, "passed": failures == 0}
