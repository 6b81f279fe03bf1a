"""Python oracles of the C kernel's entries, for the differential tests.

The product path runs every build elimination, shortcut pass and label pass
in C (``repro.kernels.native``).  Each pass's Python twin lives here, with
the same signature, writes and refusals, so a test can run an index through
either and compare the results bit for bit:

* :mod:`tests.oracles.slots` — minimum degree elimination, the supporter
  CSR and the shortcut pass;
* :mod:`tests.oracles.labels` — the label pass and the label pairs' query;
* :mod:`tests.oracles.queries` — an index answering through its pure
  ``_reference_*`` hooks, the Dijkstra searches, the PSP families' and
  overlay's queries and TOAIN's dict hub join, never a frozen store.
* :mod:`tests.oracles.cache` — the serving engine's distance cache as the
  ``OrderedDict`` table the C cache replaced.
* :mod:`tests.oracles.codec` — the wire protocol's ``encode_frame`` and
  ``decode_body`` as they were before the server encoded its replies
  straight from a batch's columns.

:func:`seams` names where each C pass is called from and the oracle that
stands in for it; ``conftest``'s ``oracle_maintenance`` fixture and
:func:`oracle_passes` (for the benchmark scripts) patch them all.
"""

from __future__ import annotations

from contextlib import contextmanager


def seams():
    """``(owner, attribute, oracle)`` of every C pass a build or an update
    window runs: the label pass, the label pairs' query, the shortcut pass
    and a build's elimination (its slot layout, and the boundary-first
    order alone)."""
    import repro.labeling.h2h as h2h_module
    import repro.partitioning.ordering as ordering_module
    import repro.treedec.slots as slots_module
    from tests.oracles import labels, slots

    return [
        (h2h_module, "update_labels", labels.update_labels),
        (h2h_module.H2HLabels, "pair_distances", labels.pair_distances),
        (slots_module, "update_slots", slots.update_slots),
        (slots_module, "eliminate_slots", slots.eliminate_slots),
        (ordering_module, "elimination_order", slots.elimination_order),
    ]


@contextmanager
def oracle_passes():
    """Run every C pass of :func:`seams` through its oracle inside the
    block."""
    patched = seams()
    saved = [getattr(owner, name) for owner, name, _ in patched]
    try:
        for owner, name, oracle in patched:
            setattr(owner, name, oracle)
        yield
    finally:
        for (owner, name, _), original in zip(patched, saved):
            setattr(owner, name, original)
