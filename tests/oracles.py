"""Closed-form answers that run no optimization, from numpy alone.

Nothing here imports the package, so a test built on these trusts nothing
in ``src/``.
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
