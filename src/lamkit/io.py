"""JSON documents, DOT and SVG emission, and b-file comparison.

The interchange schema is a JSON object ``{"degree": d, "classes":
[[angle literals]], ...}`` with optional ``name``/``level`` metadata;
angle literals are ``p/q`` fractions or base-d itineraries (``_001``).
Chord sets use ``"chords": [["a","b"], ...]`` instead of classes.  All
emitters are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .circle import Angle, AngleError, check_degree, format_angle, parse_angle
from .core import Chord, ChordSet, ClassLamination, LaminationError, PolygonClass
from .fdl import PullbackTree
from .paramgraph import GenGraph


class DocumentError(ValueError):
    pass


# --- lamination documents -------------------------------------------------------


def _parse(doc):
    """A document given as JSON text or as an already parsed value."""
    if isinstance(doc, str):
        try:
            return json.loads(doc)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
    return doc


def _object_degree(doc) -> int:
    """The checked degree of a JSON object document."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if "degree" not in doc:
        raise DocumentError("document lacks 'degree'")
    d = doc["degree"]
    if not isinstance(d, int):
        raise DocumentError(f"'degree' must be an integer, got {d!r}")
    try:
        return check_degree(d)
    except AngleError as exc:
        raise DocumentError(str(exc)) from exc


def load_lamination(doc) -> ClassLamination:
    """Parse a lamination document (dict or JSON text) into classes."""
    doc = _parse(doc)
    d = _object_degree(doc)
    raw = doc.get("classes")
    if not isinstance(raw, list):
        raise DocumentError("document lacks a 'classes' list")
    classes = []
    for ci, cls in enumerate(raw):
        if not isinstance(cls, list) or len(cls) < 2:
            raise DocumentError(f"classes[{ci}] must list >= 2 angle literals")
        verts = []
        for vi, lit in enumerate(cls):
            try:
                verts.append(parse_angle(lit, d))
            except AngleError as exc:
                raise DocumentError(f"classes[{ci}][{vi}]: {exc}") from exc
        try:
            classes.append(PolygonClass(tuple(verts)))
        except LaminationError as exc:
            raise DocumentError(f"classes[{ci}]: {exc}") from exc
    try:
        return ClassLamination.create(d, classes)
    except LaminationError as exc:
        raise DocumentError(str(exc)) from exc


def save_lamination(lam: ClassLamination, name: Optional[str] = None, level: Optional[int] = None) -> dict:
    """Canonical document: classes sorted by first vertex, reduced fractions."""
    doc = {
        "degree": lam.degree,
        "classes": [
            [format_angle(v) for v in cls.vertices] for cls in lam.sorted_classes()
        ],
    }
    if name is not None:
        doc["name"] = name
    if level is not None:
        doc["level"] = level
    return doc


def lamination_from_document(doc) -> ClassLamination:
    """Accept either schema; chord documents are reassembled into classes.

    Reassembly groups chords by shared endpoints and demands that each
    group is exactly the hull-edge set of its vertices, which is the
    import-time face of the hull-edge axiom.
    """
    from .fdl import FdlError, classes_from_chords

    doc = _parse(doc)
    if isinstance(doc, dict) and "chords" in doc:
        cs = load_chordset(doc)
        try:
            classes = classes_from_chords(cs.degree, cs.chords)
        except FdlError as exc:
            raise DocumentError(str(exc)) from exc
        try:
            return ClassLamination.create(cs.degree, classes)
        except LaminationError as exc:
            raise DocumentError(str(exc)) from exc
    return load_lamination(doc)


def load_chordset(doc) -> ChordSet:
    """Parse a chord-set document; falls back to class edges when given classes."""
    doc = _parse(doc)
    if not isinstance(doc, dict) or "chords" not in doc:
        return load_lamination(doc).as_chordset()
    d = _object_degree(doc)
    chords = []
    for i, pair in enumerate(doc["chords"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"chords[{i}] must be a two-element list")
        try:
            chords.append(Chord(parse_angle(pair[0], d), parse_angle(pair[1], d)))
        except (AngleError, LaminationError) as exc:
            raise DocumentError(f"chords[{i}]: {exc}") from exc
    try:
        return ChordSet.create(d, chords)
    except LaminationError as exc:
        raise DocumentError(str(exc)) from exc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_atomic(path: str, text: str):
    """Write via a temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lamkit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- DOT emission ------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot_tree(tree: PullbackTree) -> str:
    """Deterministic DOT for a pullback tree; node ids are canonical keys."""
    lines = ["digraph pullback_tree {", "  rankdir=TB;", "  node [shape=box];"]
    for lv, nodes in enumerate(tree.levels):
        for f in nodes:
            lines.append(f"  {_dot_quote(f.key())} [label={_dot_quote(f'level {lv}')}];")
    for parent, child in sorted(
        ((p, c) for c, p in tree.parent.items()), key=lambda e: (e[0], e[1])
    ):
        lines.append(f"  {_dot_quote(parent)} -> {_dot_quote(child)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot_gengraph(graph: GenGraph) -> str:
    """DOT for a generational graph, ranked by trapped criticality."""
    lines = ["digraph generational {", "  rankdir=TB;", "  node [shape=box];"]
    by_trapped: dict[int, list[str]] = {}
    for k in graph.vertices:
        by_trapped.setdefault(graph.trapped[k], []).append(k)
    for t in sorted(by_trapped):
        lines.append("  { rank=same;")
        for k in sorted(by_trapped[t]):
            lines.append(
                f"    {_dot_quote(k)} [label={_dot_quote(f'trapped {t}')}];"
            )
        lines.append("  }")
    for a, b in graph.edges:
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- SVG rendering ------------------------------------------------------------------

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
]


def _xy(angle: Angle, radius: float, cx: float, cy: float) -> tuple[float, float]:
    theta = 2.0 * math.pi * float(angle)
    return (cx + radius * math.cos(theta), cy - radius * math.sin(theta))


def _chord_path(c: Chord, geodesics: str, radius: float, cx: float, cy: float) -> str:
    x1, y1 = _xy(c.a, radius, cx, cy)
    x2, y2 = _xy(c.b, radius, cx, cy)
    if geodesics == "arc":
        # circle orthogonal to the boundary through both endpoints; a
        # diameter has no such circle and stays straight
        ax, ay = math.cos(2 * math.pi * float(c.a)), math.sin(2 * math.pi * float(c.a))
        bx, by = math.cos(2 * math.pi * float(c.b)), math.sin(2 * math.pi * float(c.b))
        det = ax * by - bx * ay
        if abs(det) > 1e-12:
            ux = (by - ay) / det
            uy = (ax - bx) / det
            rr = math.sqrt(max(ux * ux + uy * uy - 1.0, 0.0)) * radius
            if rr > 1e-9:
                sweep = 1 if ((c.b - c.a) % 1) < Fraction(1, 2) else 0
                return (
                    f"M {x1:.4f} {y1:.4f} A {rr:.4f} {rr:.4f} 0 0 {sweep} {x2:.4f} {y2:.4f}"
                )
    return f"M {x1:.4f} {y1:.4f} L {x2:.4f} {y2:.4f}"


def render_svg(
    levels,
    degree: Optional[int] = None,
    geodesics: str = "straight",
    size: int = 500,
    color_by_level: bool = True,
) -> str:
    """Render chord sets, a lamination, or a nested sequence of them.

    ``levels`` may be a ClassLamination, a ChordSet, or a list of ChordSet
    drawn innermost-last; exact angles become floats only here.
    """
    if isinstance(levels, ClassLamination):
        levels = [levels.as_chordset()]
    if isinstance(levels, ChordSet):
        levels = [levels]
    cx = cy = size / 2.0
    radius = size * 0.47
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'  <circle cx="{cx}" cy="{cy}" r="{radius:.4f}" fill="none" '
        f'stroke="#333333" stroke-width="1.5"/>',
    ]
    drawn: set[Chord] = set()
    for li, level in enumerate(levels):
        color = _PALETTE[li % len(_PALETTE)] if color_by_level else _PALETTE[0]
        for c in sorted(level.chords):
            if c in drawn:
                continue
            drawn.add(c)
            path = _chord_path(c, geodesics, radius, cx, cy)
            out.append(
                f'  <path d="{path}" fill="none" stroke="{color}" stroke-width="1.0"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- OEIS b-files --------------------------------------------------------------------


@dataclass(frozen=True)
class BFile:
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        idx = [i for i, _ in self.entries]
        if idx != sorted(set(idx)):
            raise DocumentError("b-file indices must be strictly increasing")


def parse_bfile(text: str) -> BFile:
    """Parse 'index value' lines; '#' starts a comment."""
    entries = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise DocumentError(f"line {ln}: expected 'index value', got {line!r}")
        try:
            entries.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise DocumentError(f"line {ln}: {exc}") from exc
    return BFile(tuple(entries))


def oeis_compare(counts: Sequence[int], bfile: BFile) -> dict:
    """Per-index comparison of computed counts against a b-file prefix.

    Counts align with the b-file's first index.  The verdict never raises:
    a mismatch is reported, not asserted.
    """
    report = {"rows": [], "first_mismatch": None, "compared": 0}
    values = dict(bfile.entries)
    if not bfile.entries:
        report["verdict"] = "empty b-file; nothing to compare"
        return report
    base = bfile.entries[0][0]
    for k, count in enumerate(counts):
        idx = base + k
        if idx not in values:
            break
        match = values[idx] == count
        report["rows"].append(
            {"index": idx, "computed": count, "reference": values[idx], "match": match}
        )
        report["compared"] += 1
        if not match and report["first_mismatch"] is None:
            report["first_mismatch"] = idx
    if report["compared"] == 0:
        report["verdict"] = "no overlapping indices"
    elif report["first_mismatch"] is None:
        report["verdict"] = f"consistent with conjecture up to depth {report['compared'] - 1}"
    else:
        report["verdict"] = f"mismatch at index {report['first_mismatch']}"
    return report
