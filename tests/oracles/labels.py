"""The label pass's Python oracles.

* :func:`update_labels` — the C ``update_labels`` entry, one numpy step per
  recomputed row: a drop-in for :func:`repro.labeling.h2h.update_labels`
  (same signature, same writes, same refusals);
* :func:`pair_distances` — ``H2HLabels.pair_distances`` (the C
  ``query_pairs`` entry over a transient store), one 2-hop query per pair.

:func:`tests.oracles.oracle_passes` patches both over their seams, so a
test maintains an index through them and compares the arenas with the C
passes' byte for byte.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

import numpy as np

from repro.labeling.h2h import check_label_arrays

INF = math.inf


def update_labels(
    parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr, pos_data, sc,
    dis_data, seeds, allowed, changed, counts, lo, hi,
) -> None:
    """``repro.labeling.h2h.update_labels`` (the C ``update_labels``) with one
    numpy gather and one minimum per recomputed row: same candidates, same
    bits, same input checks."""
    check_label_arrays(parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr,
                       pos_data, sc, dis_data, seeds, allowed, changed, counts, lo, hi)
    parents, depths = parent.tolist(), depth.tolist()
    seed = {r for r in seeds.tolist() if not len(allowed) or allowed[r]}
    order: List[int] = []
    roots: Set[int] = set()
    for root in seeds.tolist():
        if root not in seed or root in roots:
            continue
        p = parents[root]
        while p >= 0 and p not in seed:
            p = parents[p]
        if p >= 0:
            continue
        roots.add(root)
        stack = [root]
        while stack:
            r = stack.pop()
            order.append(r)
            children = child_rows[child_indptr[r] : child_indptr[r + 1]].tolist()
            stack.extend(c for c in children if not len(allowed) or allowed[c])
    changed[:] = 0
    counts[:] = 0
    flag: Dict[int, bool] = {}
    for r in order:
        ancestor_changed = flag.get(parents[r], False)
        flag[r] = ancestor_changed
        if r not in seed and not ancestor_changed:
            continue
        m = depths[r] + 1
        a, b = lo, min(hi, m)
        counts[0] += 1
        if a >= b:
            continue
        chain = [0] * m
        x = r
        for d in range(m - 1, -1, -1):
            chain[d], x = x, parents[x]
        starts = dis_indptr[chain]
        new = np.full(b - a, INF)
        # Column j of neighbour k (at column px): its own row's entry j above
        # px, the ancestor at j's entry px from px down.
        columns = np.arange(a, min(b, m - 1))
        k0, k1 = pos_indptr[r], pos_indptr[r + 1] - 1
        px, shortcut = pos_data[k0:k1, None], sc[k0:k1, None]
        slots = np.where(columns < px, starts[px] + columns, starts[columns] + px)
        new[: len(columns)] = (shortcut + dis_data[slots]).min(axis=0, initial=INF)
        if b == m:
            new[-1] = 0.0
        old = dis_data[starts[-1] + a : starts[-1] + b]
        moved = int(np.count_nonzero(new != old))
        counts[1] += b - a
        counts[2] += moved
        if moved:
            old[:] = new
            changed[r] = 1
            flag[r] = True


def pair_distances(labels, vertices, first, second):
    """``H2HLabels.pair_distances`` (one C ``query_pairs`` call) as
    ``H2HLabels.query`` per pair: the same bits."""
    verts = list(vertices)
    pairs = zip(first.tolist(), second.tolist())
    return np.array([labels.query(verts[i], verts[j]) for i, j in pairs], dtype=np.float64)
