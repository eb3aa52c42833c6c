"""Exhaustive enumeration for tiny instances; ground truth for the heuristics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import Placement, evaluate
from .domain import Instance
from .errors import SizeCapExceeded
from .saa import SaaParams, SampleSet, allowed_overloads, check_theta, is_feasible, overload_profile

DEFAULT_SIZE_CAP = 2_000_000

# Bytes of (subsets, theta) load rows built at once for the feasibility table.
LOAD_BLOCK_BYTES = 1 << 19
# Placements scored per step of the enumeration: the largest power S^t of the
# server count (1 <= t <= K) up to this whose S * S^t subset-mask entries fit
# the size cap, or S itself when none is.
STATE_BLOCK = 16384


@dataclass(frozen=True)
class OracleResult:
    optimum: float | None  # None when no placement is feasible
    argmin: Placement | None
    states_enumerated: int

    @property
    def feasible(self) -> bool:
        return self.optimum is not None


def _subset_feasibility(inst: Instance, samples: SampleSet, budget: int) -> np.ndarray:
    """(S, 2^K) table: server s hosting exactly the components in a bitmask
    has at most ``budget`` scenarios with load strictly above capacity.

    One table of cycle sums, in the order of :func:`saa.server_load`, serves
    every server: a subset's sum is its parent's (the subset without its
    highest component) plus that component's cycles. The low bits come from
    one table sized by ``LOAD_BLOCK_BYTES``; the high bits are walked depth
    first, holding at most one such block per high bit at a time. The empty
    subset is judged like any other, so a server with negative capacity is
    overloaded even when it hosts nothing.
    """
    K, theta = samples.cycles.shape
    low_bits = min(K, max(LOAD_BLOCK_BYTES // (8 * theta), 1).bit_length() - 1)
    n_low = 1 << low_bits
    ok = np.empty((inst.num_servers, 1 << K), dtype=bool)
    low = np.zeros((n_low, theta))
    for k in range(low_bits):
        np.add(low[: 1 << k], samples.cycles[k], out=low[1 << k : 2 << k])
    pending = [(0, low)]
    while pending:
        high, block = pending.pop()
        lo = high << low_bits
        for s, (rate, cap) in enumerate(zip(inst.cost_rates, inst.capacities)):
            ok[s, lo : lo + n_low] = (rate * block > cap).sum(axis=1) <= budget
        for b in range(high.bit_length(), K - low_bits):
            pending.append((high | 1 << b, block + samples.cycles[low_bits + b]))
    return ok


def exact_solve(
    inst: Instance,
    samples: SampleSet,
    params: SaaParams,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> OracleResult:
    """Enumerate every placement; minimal-cost feasible one, first on ties.

    Placements are ordered lexicographically (component 0 the most
    significant digit) and scored in blocks: the S^t placements that share
    their last K - t digits, for the largest t >= 1 with S^t at most
    ``STATE_BLOCK`` and S * S^t at most ``size_cap`` (t = 1 when none is).
    A block is a grid with one axis per leading component, so its flat
    order is lexicographic. The leading components' costs, added level by
    level in ascending component order by broadcasting, and their
    per-server subset masks (S * S^t entries) are the same in every block
    and built once per call. A block adds each trailing component's term in
    ascending order, so every placement's cost is the same sum of the same
    terms as a scratch walk over its components. Feasibility is a lookup of
    every server's hosted subset in the table from ``_subset_feasibility``;
    a server whose row admits every leading subset is skipped. A block's
    first minimum replaces the best so far when it is smaller, or equal and
    earlier in lexicographic order. ``size_cap`` bounds the S^K placements,
    the 2^K subsets per server and the subset-mask entries. The reported
    optimum is recomputed from scratch for the winning placement.
    """
    check_theta(samples, params)
    S, K = inst.num_servers, inst.total_components
    total_states = S**K
    t = min(K, 1)
    while t < K and S ** (t + 1) <= min(STATE_BLOCK, size_cap // S):
        t += 1
    mask_entries = S * S**t
    if max(total_states, 2**K, mask_entries) > size_cap:
        raise SizeCapExceeded(
            f"{S}^{K} = {total_states} placements ({2**K} subsets per server, "
            f"{mask_entries} subset-mask entries) exceeds the size cap {size_cap}"
        )

    ok = _subset_feasibility(inst, samples, allowed_overloads(params))

    r = inst.unit_transport_cost
    two_r = 2.0 * r
    l_ss = inst.dist_server_server
    # offload[k, s]: cost of component k's offload to server s.
    offload = (r * inst.component_offload_kb)[:, None] * inst.dist_server_device.T[
        inst.component_device
    ]
    # (sibling, payload) pairs of the siblings with a smaller flat index, in
    # ascending order: each unordered pair is charged twice (ordered-pair
    # convention) when its second member is assigned. Padding (j == k) drops out.
    prev_sib = [
        [(int(j), g) for j, g in zip(inst.sibling_index[k], inst.sibling_exchange_kb[k]) if j < k]
        for k in range(K)
    ]

    def add_terms(cost, a, components):
        """``cost`` plus each listed component's term, in the given order."""
        for k in components:
            term = offload[k, a[k]]
            if prev_sib[k]:
                exchange = 0.0
                for j, g in prev_sib[k]:
                    exchange = exchange + g * l_ss[a[k], a[j]]
                term = term + two_r * exchange
            cost = cost + term
        return cost

    # a[k] is component k's server: for the t leading components an index
    # array along grid axis k, for the trailing ones the block's digit.
    n_blocks = S ** (K - t)
    a = [*np.ix_(*[np.arange(S)] * t), *[0] * (K - t)]
    lead_cost = add_terms(np.zeros((1,) * t), a, range(t))
    # lead_masks[s, i]: the leading components on server s at grid entry i,
    # built from the last component up, so each one is the new slowest axis.
    mask_dtype = np.min_scalar_type(2**t - 1)
    hosts = np.eye(S, dtype=mask_dtype)
    lead_masks = np.zeros((S, 1), dtype=mask_dtype)
    for k in reversed(range(t)):
        lead_masks = (hosts[:, :, None] << k | lead_masks[:, None, :]).reshape(S, -1)
    # ok_rows[s, m, i]: server s may host the trailing components in the
    # mask m together with the leading ones in the mask i.
    ok_rows = ok.reshape(S, 2 ** (K - t), 2**t)
    row_ok = ok_rows.all(axis=2)

    best_cost = np.inf
    best_index = -1
    for q in range(n_blocks):
        tail_mask = [0] * S
        for k in range(t, K):
            a[k] = q // S ** (K - 1 - k) % S
            tail_mask[a[k]] |= 1 << (k - t)
        cost = add_terms(lead_cost, a, range(t, K)).ravel()
        # A server that may host any leading subset rules nothing out.
        binding = [s for s in range(S) if not row_ok[s, tail_mask[s]]]
        if binding:
            feasible = np.ones(cost.size, dtype=bool)
            for s in binding:
                feasible &= ok_rows[s, tail_mask[s]].take(lead_masks[s])
            cost = np.where(feasible, cost, np.inf)
        i = int(np.argmin(cost))
        index = i * n_blocks + q
        if cost[i] < best_cost or (cost[i] == best_cost and index < best_index):
            best_cost = cost[i]
            best_index = index

    if best_index < 0:
        return OracleResult(optimum=None, argmin=None, states_enumerated=total_states)
    placement = Placement(tuple(best_index // S ** (K - 1 - k) % S for k in range(K)))
    if not is_feasible(overload_profile(inst, samples, placement, params), params):
        raise RuntimeError("enumeration accepted a placement that fails the scratch check")
    return OracleResult(
        optimum=evaluate(inst, placement).total, argmin=placement, states_enumerated=total_states
    )
