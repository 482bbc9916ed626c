"""Text format for graphs with explicit orientations and rotations.

Records, one per line (blank lines and # comments ignored):

    vertices N
    edge U V            # repeatable; order defines edge indices
    orient E HEAD_END   # optional, per edge
    rotation V: e0.1 e2.0 ...   # optional; half-edge tokens eINDEX.END
    assert pfaffian-compatible  # optional

Rotations and orientations are first-class because the signed models are
meaningless without them; standard compressed formats carry neither.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Multigraph,
    Orientation,
    RotationSystem,
    default_orientation,
    default_rotation,
)

__all__ = ["GraphDocument", "GraphParseError", "parse_graph", "serialize_graph",
           "load_graph", "save_graph"]


class GraphParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class GraphDocument:
    graph: Multigraph
    orientation: Orientation | None = None
    rotation: RotationSystem | None = None
    pfaffian_compatible: bool = False

    def orientation_or_default(self) -> Orientation:
        return self.orientation or default_orientation(self.graph)

    def rotation_or_default(self) -> RotationSystem:
        return self.rotation or default_rotation(self.graph)


def _parse_halfedge(tok: str, lineno: int):
    if not tok.startswith("e") or "." not in tok:
        raise GraphParseError(lineno, f"bad half-edge token {tok!r} (want eINDEX.END)")
    head, _, tail = tok[1:].partition(".")
    try:
        e, end = int(head), int(tail)
    except ValueError:
        raise GraphParseError(lineno, f"bad half-edge token {tok!r}") from None
    if end not in (0, 1):
        raise GraphParseError(lineno, f"half-edge end must be 0 or 1, got {end}")
    return e, end


def parse_graph(text: str) -> GraphDocument:
    num_vertices = None
    edges: list[tuple[int, int]] = []
    orient_lines: list[tuple[int, int, int]] = []
    rotation_lines: list[tuple[int, int, list]] = []
    pfaffian = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertices":
            if num_vertices is not None:
                raise GraphParseError(lineno, "duplicate vertices record")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise GraphParseError(lineno, "want: vertices N")
            num_vertices = int(parts[1])
        elif kind == "edge":
            if len(parts) != 3:
                raise GraphParseError(lineno, "want: edge U V")
            try:
                edges.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise GraphParseError(lineno, "edge endpoints must be integers") from None
        elif kind == "orient":
            if len(parts) != 3:
                raise GraphParseError(lineno, "want: orient E HEAD_END")
            try:
                orient_lines.append((lineno, int(parts[1]), int(parts[2])))
            except ValueError:
                raise GraphParseError(lineno, "orient fields must be integers") from None
        elif kind == "rotation":
            rest = line[len("rotation"):].strip()
            head, sep, tail = rest.partition(":")
            if not sep:
                raise GraphParseError(lineno, "want: rotation V: tokens")
            try:
                v = int(head.strip())
            except ValueError:
                raise GraphParseError(lineno, "rotation vertex must be an integer") from None
            toks = [_parse_halfedge(t, lineno) for t in tail.split()]
            rotation_lines.append((lineno, v, toks))
        elif kind == "assert":
            if parts[1:] != ["pfaffian-compatible"]:
                raise GraphParseError(lineno, f"unknown assertion {parts[1:]}")
            pfaffian = True
        else:
            raise GraphParseError(lineno, f"unknown record {kind!r}")
    if num_vertices is None:
        raise GraphParseError(0, "missing vertices record")
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise GraphParseError(0, f"edge ({u},{v}) out of range")
    graph = Multigraph(num_vertices, tuple(edges))

    orientation = None
    if orient_lines:
        head_end = list(default_orientation(graph).head_end)
        seen = set()
        for lineno, e, end in orient_lines:
            if not 0 <= e < graph.num_edges:
                raise GraphParseError(lineno, f"orient: edge {e} out of range")
            if e in seen:
                raise GraphParseError(lineno, f"duplicate orient record for edge {e}")
            seen.add(e)
            if end not in (0, 1):
                raise GraphParseError(lineno, "orient: head end must be 0 or 1")
            head_end[e] = end
        orientation = Orientation(tuple(head_end))

    rotation = None
    if rotation_lines:
        orders = [list(graph.halfedges_at(v)) for v in range(num_vertices)]
        seen = set()
        for lineno, v, toks in rotation_lines:
            if not 0 <= v < num_vertices:
                raise GraphParseError(lineno, f"rotation: vertex {v} out of range")
            if v in seen:
                raise GraphParseError(lineno, f"duplicate rotation record for vertex {v}")
            seen.add(v)
            if sorted(toks) != sorted(graph.halfedges_at(v)):
                raise GraphParseError(
                    lineno, f"rotation at vertex {v} must list H(v) exactly once"
                )
            orders[v] = toks
        rotation = RotationSystem(tuple(tuple(o) for o in orders))
        rotation.validate(graph)
    return GraphDocument(graph, orientation, rotation, pfaffian)


def serialize_graph(doc: GraphDocument) -> str:
    g = doc.graph
    lines = [f"vertices {g.num_vertices}"]
    lines += [f"edge {u} {v}" for u, v in g.edges]
    if doc.orientation is not None:
        lines += [
            f"orient {e} {doc.orientation.head_end[e]}" for e in range(g.num_edges)
        ]
    if doc.rotation is not None:
        for v in range(g.num_vertices):
            toks = " ".join(f"e{e}.{end}" for e, end in doc.rotation.order_at(v))
            lines.append(f"rotation {v}: {toks}")
    if doc.pfaffian_compatible:
        lines.append("assert pfaffian-compatible")
    return "\n".join(lines) + "\n"


def load_graph(path) -> GraphDocument:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise GraphParseError(lineno, f"not UTF-8 text ({err.reason})") from None
    return parse_graph(text)


def save_graph(doc: GraphDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(doc))
