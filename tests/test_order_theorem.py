"""The paper's order theorem beyond two users.

The weight-sorted encoding order should reach the best weighted secrecy sum
of all K! orders.  Random K = 3 and K = 4 instances (n_t = 2, two antennas
per user, one at the eavesdropper, P = 1) compare the rule's order with
every order; with equal weights every order should reach the same sum rate.
"""

import numpy as np

from securebc import WeightVector, compare_orders, sample_channel_set

# the rule's order may trail the best order by this much in weighted sum
GAP_TOL = 2e-3


def rule_misses(K, seeds, weights):
    """Instances where the rule's order trails the best order by more than
    ``GAP_TOL``, as (seed, weights, gap); each is printed."""
    misses = []
    for seed, w in zip(seeds, weights):
        ch = sample_channel_set(seed, K, 2, [2] * K, 1, 1.0)
        cmp = compare_orders(ch, w)
        best = max(r.wsr for r in cmp.per_order)
        rule = next(r.wsr for r in cmp.per_order if r.order == cmp.theorem_order)
        if rule < best - GAP_TOL:
            misses.append((seed, w.weights, best - rule))
    for seed, w, gap in misses:
        print(f"  order-rule miss: K = {K}, seed {seed}, weights {w}: "
              f"{gap:.3e} below the best order")
    return misses


def random_weights(K, count, seed):
    rng = np.random.default_rng(seed)
    return [WeightVector(rng.random(K) + 0.05) for _ in range(count)]


def test_three_users_rule_order_is_best():
    seeds = range(3000, 3030)
    misses = rule_misses(3, seeds, random_weights(3, len(seeds), 3))
    assert len(misses) <= 0.05 * len(seeds), misses


def test_four_users_rule_order_is_best():
    seeds = range(4000, 4005)
    misses = rule_misses(4, seeds, random_weights(4, len(seeds), 4))
    assert len(misses) <= 0.05 * len(seeds), misses


def test_four_users_equal_weight_sum_rate_is_order_free():
    # as acceptance criterion 7 does for three users
    ch = sample_channel_set(4100, 4, 2, [2] * 4, 1, 1.0)
    cmp = compare_orders(ch, WeightVector([0.25] * 4))
    sums = [r.rates.sum_rate for r in cmp.per_order]
    assert len(sums) == 24
    assert max(sums) - min(sums) <= 2e-2, (min(sums), max(sums))
