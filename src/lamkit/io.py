"""JSON documents, DOT and SVG emission, and b-file comparison.

The interchange schema is a JSON object ``{"degree": d, "classes":
[[angle literals]], ...}`` with optional ``name``/``level`` metadata;
angle literals are ``p/q`` fractions or base-d itineraries (``_001``).
Chord sets use ``"chords": [["a","b"], ...]`` instead of classes, and the
lamination loader regroups them into classes on the chord set's residues.
The loader parses the literals, converts them to residues once and checks
the sorted residue view that is the lamination.  All emitters are
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .circle import _INTEGER_RE, Angle, AngleError, check_degree, format_angle, parse_angle
from .core import Chord, ChordSet, ClassLamination, LaminationError, PolygonClass
from .core import _class_residues, _components, _hull_edges, _set_view
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
        except ValueError as exc:  # an integer past the interpreter's conversion limit
            raise DocumentError("invalid JSON: an integer has too many digits") from exc
    return doc


def _object_degree(doc) -> int:
    """The checked degree of a JSON object document in one of the two schemas."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if "degree" not in doc:
        raise DocumentError("document lacks 'degree'")
    if "classes" in doc and "chords" in doc:
        raise DocumentError("document has both 'classes' and 'chords'; give one")
    d = doc["degree"]
    if not isinstance(d, int):
        raise DocumentError(f"'degree' must be an integer, got {d!r}")
    try:
        return check_degree(d)
    except AngleError as exc:
        raise DocumentError(str(exc)) from exc


def load_lamination(doc) -> ClassLamination:
    """Parse a lamination document (dict or JSON text) into classes.

    Literals, then one residue conversion, then the checked residue view.
    A chord document regroups on its checked chord set's residue view:
    chords sharing endpoints form vertex-disjoint groups, and each must be
    exactly the hull-edge set of its vertices, which is the import-time face
    of the hull-edge axiom; the group of the least failing chord, in
    ``Chord`` order, is named.
    """
    doc = _parse(doc)
    d = _object_degree(doc)
    if "chords" in doc:
        M, pairs, _ = load_chordset(doc)._view
        root, groups = _components(pairs), {}
        for e in pairs:  # in Chord order, so each group opens with its least chord
            groups.setdefault(root[e[0]], []).append(e)
        classes = [tuple(sorted({x for e in g for x in e})) for g in groups.values()]
        for vs, g in zip(classes, groups.values()):
            if set(_hull_edges(vs)) != set(g):
                poly = PolygonClass._from_sorted(tuple(Fraction(x, M) for x in vs))
                raise DocumentError(f"chords at {poly} are not the hull edges of their class")
        return ClassLamination._from_residues(d, M, sorted(classes))
    elif not isinstance(doc.get("classes"), list):
        raise DocumentError("document lacks a 'classes' list")
    else:
        verts = []  # each class's vertices, in document order
        for ci, cls in enumerate(doc["classes"]):
            if not isinstance(cls, list) or len(cls) < 2:
                _sorted_classes(verts)  # an earlier class's own error comes first
                raise DocumentError(f"classes[{ci}] must list >= 2 angle literals")
            verts.append([])
            for vi, lit in enumerate(cls):
                try:
                    verts[-1].append(parse_angle(lit, d))
                except AngleError as exc:
                    _sorted_classes(verts[:-1])
                    raise DocumentError(f"classes[{ci}][{vi}]: {exc}") from exc
    M, items = _sorted_classes(verts)
    first = {r: PolygonClass._from_sorted(vs) for r, vs in items}  # a class listed twice once, as in a set
    lam = _set_view(object.__new__(ClassLamination), d, M, sorted(first.items()))
    try:
        lam.check()
    except LaminationError as exc:
        raise DocumentError(str(exc)) from exc
    if len(first) < len(items):
        i, j = next((i, j) for j, c in enumerate(items) for i in range(j) if items[i][0] == c[0])
        raise DocumentError(f"classes[{i}] and classes[{j}] list the same class {first[items[i][0]]}")
    return lam


def _sorted_classes(verts: list) -> tuple[int, list]:
    """One residue conversion: M and each list's sorted ``(residues, vertices)``; a repeated vertex raises."""
    M, res = _class_residues(verts)
    items = [tuple(zip(*sorted(zip(r, vs)))) for r, vs in zip(res, verts)]
    for ci, (r, vs) in enumerate(items):
        if len(set(r)) < len(r):  # PolygonClass's text, which test_load_matches_the_fraction_oracle compares
            raise DocumentError(f"classes[{ci}]: duplicate vertices in {PolygonClass._from_sorted(vs)}")
    return M, items


def save_lamination(lam: ClassLamination, level: Optional[int] = None) -> dict:
    """Canonical document: classes sorted by first vertex, reduced fractions."""
    classes = [[format_angle(v) for v in c.vertices] for c in lam.sorted_classes()]
    doc = {"degree": lam.degree, "classes": classes}
    if level is not None:
        doc["level"] = level
    return doc


def load_chordset(doc) -> ChordSet:
    """Parse a chord-set document; falls back to class edges when given classes."""
    doc = _parse(doc)
    if not isinstance(doc, dict) or "chords" not in doc:
        return load_lamination(doc).as_chordset()
    d = _object_degree(doc)
    if not isinstance(doc["chords"], list):
        raise DocumentError("document lacks a 'chords' list")
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
    real = os.path.realpath(path)  # write through a symbolic link, as open(path, "w") does
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".lamkit-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        try:
            mode = os.stat(real).st_mode & 0o7777  # open(path, "w") keeps the old mode
        except FileNotFoundError:
            mask = os.umask(0)  # the only way to read the umask; restored at once
            os.umask(mask)
            mode = 0o666 & ~mask  # what open(path, "w") gives a new file
        os.chmod(tmp, mode)
        os.replace(tmp, real)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None  # name the user's path
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
    for parent, child in sorted((p, c) for c, p in tree.parent.items()):
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

_SVG_SIZE = 500
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


def render_svg(levels, geodesics: str = "straight") -> str:
    """Render chord sets, a lamination, or a nested sequence of them.

    ``levels`` may be a ClassLamination, a ChordSet, or a list of ChordSet
    drawn innermost-last; exact angles become floats only here.
    """
    if isinstance(levels, ClassLamination):
        levels = [levels.as_chordset()]
    if isinstance(levels, ChordSet):
        levels = [levels]
    cx = cy = _SVG_SIZE / 2.0
    radius = _SVG_SIZE * 0.47
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'  <circle cx="{cx}" cy="{cy}" r="{radius:.4f}" fill="none" '
        f'stroke="#333333" stroke-width="1.5"/>',
    ]
    drawn: set[Chord] = set()
    for li, level in enumerate(levels):
        color = _PALETTE[li % len(_PALETTE)]
        for c in level.sorted_chords():
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
        entry = []
        for name, part in zip(("index", "value"), parts):
            try:
                entry.append(int(part))
            except ValueError as exc:  # an integer literal fails only past CPython's limit on digits
                big = f"{name} has {len(part.lstrip('+-'))} digits, too long to convert"
                raise DocumentError(f"line {ln}: {big if _INTEGER_RE.match(part) else exc}") from exc
        entries.append(tuple(entry))
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
