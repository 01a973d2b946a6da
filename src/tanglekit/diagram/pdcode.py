"""PD text format for tangle and link diagrams.

Format (UTF-8, LF line endings, `#` comments):

    tangle k=<strings> n=<crossings>
    X a b c d     one line per crossing: arc ids counterclockwise,
                  starting from the incoming under-arc
    B p1 ... p2k  arc ids met at the boundary, circular order
    S lbl: a1,a2,...  arcs of each component in traversal order from a1;
                      labels are distinct, and no arc is in two S lines

A diagram has one header line, naming k and n once each, and at most
one B line.  Arc ids are arbitrary positive integers; every arc has
exactly two incidences among the X and B lines, except a crossing-free
closed loop, whose single arc id appears only in its S line.  Closed
diagrams have k=0 and no B line.

The S line orients each component, except a closed one of one or two
arcs, whose arc list reads the same in both directions.  Such a component
is oriented by the X lines instead: where it passes under, its incoming
arc is the one listed first.  A component that is over at all its
crossings cannot be oriented that way and keeps the first end of its
first arc; it lies above the rest of the diagram, so its linking numbers
are 0 in either direction.
"""

from __future__ import annotations

from ..errors import PDSyntaxError
from .core import TangleDiagram


def emit_pd(d: TangleDiagram) -> str:
    comps = d.components
    arc_id: dict[int, int] = {}
    nxt = 1
    s_lines: list[str] = []
    for comp in comps:
        ids = []
        for dart in comp.out_darts:
            arc_id[dart] = nxt
            arc_id[d.alpha[dart]] = nxt
            ids.append(str(nxt))
            nxt += 1
        if not comp.out_darts:  # crossing-free circle
            ids.append(str(nxt))
            nxt += 1
        s_lines.append(f"S {comp.label}: {','.join(ids)}")
    x_lines = []
    for c in range(d.n):
        u_in = 0 if not d.orientation[4 * c + 0] else 2
        slots = [(u_in + i) % 4 for i in range(4)]
        x_lines.append("X " + " ".join(str(arc_id[4 * c + s]) for s in slots))
    lines = [f"tangle k={len(d.strings)} n={d.n}"]
    lines.extend(x_lines)
    if d.k:
        lines.append("B " + " ".join(str(arc_id[d.ep_dart(j)]) for j in range(d.k)))
    lines.extend(s_lines)
    return "\n".join(lines) + "\n"


def parse_pd(text: str) -> TangleDiagram:
    header = None
    x_rows: list[tuple[int, list[int]]] = []
    b_row: list[int] | None = None
    s_rows: list[tuple[int, str, list[int]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "tangle":
            if header is not None:
                raise PDSyntaxError("second 'tangle' header line", ln)
            kv = {}
            for tok in parts[1:]:
                if "=" not in tok:
                    raise PDSyntaxError(f"bad header token {tok!r}", ln)
                key, val = tok.split("=", 1)
                if key not in ("k", "n"):
                    raise PDSyntaxError(f"unknown header key {key!r}", ln)
                if key in kv:
                    raise PDSyntaxError(f"repeated header key {key!r}", ln)
                try:
                    kv[key] = int(val)
                except ValueError:
                    raise PDSyntaxError(f"non-integer header value {val!r}", ln)
            if "k" not in kv or "n" not in kv:
                raise PDSyntaxError("header needs k= and n=", ln)
            header = kv
        elif tag == "X":
            if len(parts) != 5:
                raise PDSyntaxError("X line needs four arc ids", ln)
            try:
                x_rows.append((ln, [int(t) for t in parts[1:]]))
            except ValueError:
                raise PDSyntaxError("non-integer arc id", ln)
        elif tag == "B":
            if b_row is not None:
                raise PDSyntaxError("second B line", ln)
            try:
                b_row = [int(t) for t in parts[1:]]
            except ValueError:
                raise PDSyntaxError("non-integer arc id", ln)
        elif tag == "S":
            rest = line[1:].strip()
            if ":" not in rest:
                raise PDSyntaxError("S line needs 'label: arcs'", ln)
            label, arcs = rest.split(":", 1)
            try:
                ids = [int(t) for t in arcs.replace(",", " ").split()]
            except ValueError:
                raise PDSyntaxError("non-integer arc id", ln)
            if not ids:
                raise PDSyntaxError("empty S line", ln)
            label = label.strip()
            if any(row[1] == label for row in s_rows):
                raise PDSyntaxError(f"duplicate S label {label!r}", ln)
            s_rows.append((ln, label, ids))
        else:
            raise PDSyntaxError(f"unknown record {tag!r}", ln)
    if header is None:
        raise PDSyntaxError("missing 'tangle' header line", 1)
    n = header["n"]
    k_strings = header["k"]
    if len(x_rows) != n:
        raise PDSyntaxError(f"header says n={n} but found {len(x_rows)} X lines", 1)
    boundary = b_row or []
    if len(boundary) != 2 * k_strings:
        raise PDSyntaxError(
            f"boundary needs {2 * k_strings} entries, found {len(boundary)}", 1
        )
    k = len(boundary)

    # collect incidences: arc id -> list of darts
    incid: dict[int, list[int]] = {}
    for idx, (ln, row) in enumerate(x_rows):
        for s, arc in enumerate(row):
            incid.setdefault(arc, []).append(4 * idx + s)
    for j, arc in enumerate(boundary):
        incid.setdefault(arc, []).append(4 * n + j)
    free_arcs = set()
    for ln, label, ids in s_rows:
        for a in ids:
            if a not in incid:
                free_arcs.add(a)
    alpha = [None] * (4 * n + k)
    for arc, darts in incid.items():
        if len(darts) != 2:
            raise PDSyntaxError(f"arc {arc} has {len(darts)} incidences, needs 2", 1)
        alpha[darts[0]] = darts[1]
        alpha[darts[1]] = darts[0]
    if any(a is None for a in alpha):
        raise PDSyntaxError("incomplete wiring", 1)

    # components from S lines: each must list exactly the arcs met when
    # tracing from its first arc, and no arc belongs to two of them
    probe = TangleDiagram(n, k, tuple(alpha))
    arc_of = {x: arc for arc, darts in incid.items() for x in darts}
    claimed: set[int] = set()
    strings: list[tuple[str, int]] = []
    loops: list[tuple[str, int]] = []
    free_loops: list[str] = []
    for ln, label, ids in s_rows:
        shared = claimed.intersection(ids)
        if shared:
            raise PDSyntaxError(f"arc {min(shared)} appears in two S lines", ln)
        claimed.update(ids)
        if len(ids) == 1 and ids[0] in free_arcs:
            free_loops.append(label)
            continue
        darts = incid.get(ids[0], [])
        ep_darts = [x for x in darts if probe.is_ep_dart(x)]
        # a string starts at its endpoint; a loop at either end of its first
        # arc, whichever traces the listed order
        starts = []
        for start in ep_darts[:1] or darts:
            traced, closed = probe._trace_from(start)
            if [arc_of[x] for x in traced] == ids and (closed or ep_darts):
                starts.append((start, traced))
        if not starts:
            raise PDSyntaxError(
                f"S line {label!r} does not list its component's arcs in traversal order", ln
            )
        # a loop of one or two arcs traces its S line both ways; take the way
        # that never leaves a crossing by its incoming under-arc (slot 0)
        start = next(
            (dart for dart, traced in starts if all(x % 4 for x in traced)), starts[0][0]
        )
        if ep_darts:
            strings.append((label, start - 4 * n))
        else:
            loops.append((label, start))
    diag = TangleDiagram(
        n, k, tuple(alpha), tuple(strings), tuple(loops), tuple(free_loops)
    )
    diag.validate()
    return diag
