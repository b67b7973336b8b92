"""Closed-form answers and textbook references that run no optimization, from numpy alone.

Nothing here but ``ensemble_row`` imports the package, so a test built on
the others trusts nothing in ``src/``.
"""

import numpy as np


def misome_capacity(h, G, P):
    """Secrecy capacity, in nats, of a single-antenna user ``h`` (1 x n_t)
    against an eavesdropper ``G`` (n_e x n_t) at total power ``P``:
    max(0, log lam_max(I + P h^H h, I + P G^H G)), the largest generalized
    eigenvalue, reached by rank-one beamforming (Khisti & Wornell, "Secure
    transmission with multiple antennas I: the MISOME wiretap channel",
    IEEE Trans. IT 56(7), 2010).  With B = I + P G^H G = L L^H, the pencil's
    eigenvalues are those of L^-1 (I + P h^H h) L^-H."""
    h, G = np.atleast_2d(h), np.atleast_2d(G)
    eye = np.eye(h.shape[1])
    l_inv = np.linalg.inv(np.linalg.cholesky(eye + P * (G.conj().T @ G)))
    a = l_inv @ (eye + P * (h.conj().T @ h)) @ l_inv.conj().T
    lam_max = np.linalg.eigvalsh((a + a.conj().T) / 2)[-1]
    return max(0.0, float(np.log(lam_max)))


def _psd_power(m, p):
    """m^p of a Hermitian positive definite m, through eigh."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * w ** p) @ v.conj().T


def duality_map(H, G, given, downlink, preceding):
    """The BC-MAC covariance map with effective eavesdropper channels
    (Vishwanath, Jindal & Goldsmith, IEEE Trans. IT 49(10), 2003), from its
    textbook factors: two eigh square roots and one SVD per position.

    ``H`` and ``given`` are indexed by encoding position; ``given`` holds
    downlink covariances (n_t x n_t) if ``downlink``, else uplink ones
    (n_k x n_k).  C_k = I + H_k (sum of later downlink covariances) H_k^H and
    D_k = I + sum of H_j^H S_j H_j over the uplink positions before k
    (``preceding``) or after it.  With D^-1/2 H^H C^-1/2 = E L F^H,
    T = C^-1/2 F E^H D^1/2 maps downlink to uplink, U = D^-1/2 E F^H C^1/2
    maps back, and Ge = U^H G^H.  Returns (mapped covariances, Ge), both by
    position."""
    K, n_t = len(H), H[0].shape[1]
    mapped, eve = [None] * K, [None] * K
    down, up = (given, mapped) if downlink else (mapped, given)
    along = range(K) if preceding else range(K - 1, -1, -1)
    for k in (along if downlink else range(K - 1, -1, -1)):
        h = H[k]
        C = np.eye(h.shape[0]) + sum(h @ down[j] @ h.conj().T for j in range(k + 1, K))
        before = range(k) if preceding else range(k + 1, K)
        D = np.eye(n_t) + sum(H[j].conj().T @ up[j] @ H[j] for j in before)
        e, _, fh = np.linalg.svd(_psd_power(D, -0.5) @ h.conj().T @ _psd_power(C, -0.5),
                                 full_matrices=False)
        fe = fh.conj().T @ e.conj().T
        t = _psd_power(C, -0.5) @ fe @ _psd_power(D, 0.5)
        u = _psd_power(D, -0.5) @ fe.conj().T @ _psd_power(C, 0.5)
        f = t if downlink else u
        mapped[k] = f @ given[k] @ f.conj().T
        eve[k] = u.conj().T @ G.conj().T
    return mapped, eve


def secure_dof(w, n_k, n_t, n_e):
    """The pre-log d of the optimal weighted secrecy sum, which grows like
    d ln P at high SNR, from the antenna counts and the weights ``w`` alone
    (conjectured, not derived; ``test_oracles.py`` checks it against solves
    at K = 2 and 3).

    With the users sorted by weight, highest first, and
    cap(S) = max(0, min(n_t, sum_{k in S} n_k + n_e) - n_e), it is
    d = sum_i w_(i) (cap(first i users) - cap(first i - 1 users)), the greedy
    maximum over a polymatroid.  At K = 1 it is the MIMOME wiretap channel's
    secure degrees of freedom, min(n_t, n_k + n_e) - n_e when n_t > n_e,
    else 0 (Khisti & Wornell, "Secure transmission with multiple antennas
    II: the MIMOME wiretap channel", IEEE Trans. IT 56(11), 2010); the region
    it would follow from is the S-DPC secrecy capacity region (Ekrem &
    Ulukus, IEEE Trans. IT 57(4), 2011)."""
    def cap(antennas):
        return max(0, min(n_t, antennas + n_e) - n_e)

    d, antennas = 0.0, 0
    for wk, nk in sorted(zip(w, n_k), key=lambda user: -user[0]):
        d += wk * (cap(antennas + nk) - cap(antennas))
        antennas += nk
    return d


def ensemble_row(seed):
    """One instance of ``duality_property_ensemble(1, seed)`` replayed through
    the package's public maps and rates, plan by plan, as the ensemble ran
    before it worked on position lists; it draws from
    ``numpy.random.default_rng(seed)`` in the ensemble's order.

    Returns (K, whether the plan was drawn on the uplink side, [rate error,
    trace error, round-trip error, objective error, ladder floor])."""
    from securebc import (BC, MAC, EncodingOrder, WeightVector, bc_rates, bc_to_mac,
                          build_context_from_bc, mac_rates, mac_to_bc, sample_channel_set,
                          wsr_equivalence_pair)
    from securebc.linalg import min_eigenvalue
    from securebc.rates import random_plan

    rng = np.random.default_rng(seed)
    K, n_t, n_e = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (1, 4), (1, 3)))
    mac_first = bool(rng.random() < 0.5)
    n_k = [int(rng.integers(1, n_t + 1) if mac_first else rng.integers(n_t, 4))
           for _ in range(K)]
    power = float(0.5 + 2.0 * rng.random())
    ch = sample_channel_set(int(rng.integers(2 ** 31)), K, n_t, n_k, n_e, power)
    order = EncodingOrder(rng.permutation(K) + 1)
    w = WeightVector(rng.random(K) + 0.05)
    if mac_first:
        plan_mac = random_plan(MAC, n_k, power, rng)
        plan_bc = mac_to_bc(ch, order, plan_mac)
        back = bc_to_mac(ch, order, plan_bc)
    else:
        plan_bc = random_plan(BC, [n_t] * K, power, rng)
        plan_mac = bc_to_mac(ch, order, plan_bc)
        back = mac_to_bc(ch, order, plan_mac)
    ctx = build_context_from_bc(ch, order, plan_bc)
    r_bc = np.array(bc_rates(ch, order, plan_bc).per_user)
    r_mac = np.array(mac_rates(ch, order, plan_mac).per_user)
    r_back = np.array((mac_rates if mac_first else bc_rates)(ch, order, back).per_user)
    obj, wsr = wsr_equivalence_pair(ch, order, plan_mac, w)
    row = [np.max(np.abs(r_bc - r_mac)), abs(plan_bc.total_trace - plan_mac.total_trace),
           np.max(np.abs(r_bc - r_back)), abs(obj - wsr),
           np.min([min_eigenvalue(m) for m in ctx.c_list + ctx.d_list])]
    return K, mac_first, [float(x) for x in row]
