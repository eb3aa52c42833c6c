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
# Most placements scored per step of the enumeration.
STATE_BLOCK = 1024


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

    Placements are walked in lexicographic order (component 0 the most
    significant digit) in blocks of at most ``STATE_BLOCK`` placements that
    share their leading digits. A block's costs add each component's term
    in ascending component order, and its feasibility is a lookup of every
    server's hosted subset in the table from ``_subset_feasibility``. The
    lowest cost of a block replaces the best so far only when strictly
    smaller. ``size_cap`` bounds both the S^K placements and the 2^K subsets
    per server. The reported optimum is recomputed from scratch for the
    winning placement.
    """
    check_theta(samples, params)
    S, K = inst.num_servers, inst.total_components
    total_states = S**K
    if max(total_states, 2**K) > size_cap:
        raise SizeCapExceeded(
            f"{S}^{K} = {total_states} placements ({2**K} subsets per server) "
            f"exceeds the size cap {size_cap}"
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

    # A block holds the S^t placements that share their first K - t digits;
    # tail[i] lists the trailing digits of its i-th placement.
    t = min(K, 1)
    while t < K and S ** (t + 1) <= STATE_BLOCK:
        t += 1
    head = K - t
    block = S**t
    tail = np.arange(block)[:, None] // S ** np.arange(t - 1, -1, -1) % S
    tail_masks = np.zeros((S, block), dtype=np.int64)
    for i in range(t):
        tail_masks[tail[:, i], np.arange(block)] |= 1 << (head + i)

    best_cost = np.inf
    best_index = -1
    for p in range(S**head):
        a = [p // S ** (head - 1 - k) % S for k in range(head)] + list(tail.T)
        head_mask = [0] * S
        for k in range(head):
            head_mask[a[k]] |= 1 << k
        cost = np.zeros(block)
        for k in range(K):
            term = offload[k, a[k]]
            if prev_sib[k]:
                exchange = 0.0
                for j, g in prev_sib[k]:
                    exchange = exchange + g * l_ss[a[k], a[j]]
                term = term + two_r * exchange
            cost += term
        feasible = np.ones(block, dtype=bool)
        for s in range(S):
            feasible &= ok[s].take(tail_masks[s] | head_mask[s])
        cost[~feasible] = np.inf
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            best_cost = cost[i]
            best_index = p * block + i

    if best_index < 0:
        return OracleResult(optimum=None, argmin=None, states_enumerated=total_states)
    placement = Placement(tuple(best_index // S ** (K - 1 - k) % S for k in range(K)))
    if not is_feasible(overload_profile(inst, samples, placement, params), params):
        raise RuntimeError("enumeration accepted a placement that fails the scratch check")
    return OracleResult(
        optimum=evaluate(inst, placement).total, argmin=placement, states_enumerated=total_states
    )
