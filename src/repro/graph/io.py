"""Graph input/output in DIMACS and edge-list formats.

The paper evaluates on road networks distributed in the DIMACS shortest-path
challenge format (``.gr`` graph files and ``.co`` coordinate files).  This
module reads and writes that format so users with access to the real DIMACS
datasets can run the harness on them, and so synthetic networks can be saved
and reloaded deterministically.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Optional, Union

from repro.exceptions import GraphError
from repro.graph.graph import Graph

PathLike = Union[str, Path]


def _open_text(path: PathLike, mode: str):
    """Open a possibly gzip-compressed text file."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def read_dimacs_gr(path: PathLike) -> Graph:
    """Read a DIMACS ``.gr`` file into a :class:`Graph`.

    DIMACS arcs are directed; road networks ship each undirected edge as two
    arcs.  We collapse them into a single undirected edge keeping the minimum
    weight, matching the paper's undirected-graph model.  DIMACS vertex ids
    are 1-based; they are shifted to 0-based ids here.
    """
    us, vs, weights = [], [], []
    declared_vertices: Optional[int] = None
    with _open_text(path, "r") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphError(f"{path}: malformed problem line at {line_no}: {line!r}")
                declared_vertices = int(parts[2])
            elif parts[0] == "a":
                if len(parts) != 4:
                    raise GraphError(f"{path}: malformed arc line at {line_no}: {line!r}")
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                if u != v:
                    us.append(u)
                    vs.append(v)
                    weights.append(float(parts[3]))
            else:
                raise GraphError(f"{path}: unknown line type at {line_no}: {line!r}")
    if declared_vertices is None:
        raise GraphError(f"{path}: missing 'p sp' problem line")
    return Graph.from_edges(us, vs, weights, vertices=range(declared_vertices))


def read_dimacs_co(path: PathLike, graph: Graph) -> None:
    """Read a DIMACS ``.co`` coordinate file and attach coordinates to ``graph``."""
    with _open_text(path, "r") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c") or line.startswith("p"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) != 4:
                    raise GraphError(f"{path}: malformed vertex line at {line_no}: {line!r}")
                v, x, y = int(parts[1]) - 1, float(parts[2]), float(parts[3])
                if graph.has_vertex(v):
                    graph.set_coordinate(v, x, y)
            else:
                raise GraphError(f"{path}: unknown line type at {line_no}: {line!r}")


def write_dimacs_gr(graph: Graph, path: PathLike, comment: str = "") -> None:
    """Write ``graph`` as a DIMACS ``.gr`` file (each edge emitted as two arcs)."""
    with _open_text(path, "w") as handle:
        if comment:
            for comment_line in comment.splitlines():
                handle.write(f"c {comment_line}\n")
        handle.write(f"p sp {graph.num_vertices} {graph.num_edges * 2}\n")
        for u, v, w in graph.edges():
            weight = int(w) if float(w).is_integer() else w
            handle.write(f"a {u + 1} {v + 1} {weight}\n")
            handle.write(f"a {v + 1} {u + 1} {weight}\n")


def write_dimacs_co(graph: Graph, path: PathLike) -> None:
    """Write vertex coordinates as a DIMACS ``.co`` file."""
    with _open_text(path, "w") as handle:
        handle.write(f"p aux sp co {graph.num_vertices}\n")
        for v in sorted(graph.vertices()):
            coord = graph.coordinate(v)
            if coord is None:
                continue
            handle.write(f"v {v + 1} {coord[0]:.0f} {coord[1]:.0f}\n")


def read_edge_list(path: PathLike) -> Graph:
    """Read a whitespace-separated ``u v weight`` edge list (0-based ids)."""
    us, vs, weights = [], [], []
    with _open_text(path, "r") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphError(f"{path}: malformed edge line at {line_no}: {line!r}")
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
            weights.append(float(parts[2]))
    return Graph.from_edges(us, vs, weights)


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` as a ``u v weight`` edge list."""
    with _open_text(path, "w") as handle:
        for u, v, w in graph.edges():
            handle.write(f"{u} {v} {w}\n")
