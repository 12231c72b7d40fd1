"""Command-line surface tying the library together.

Exit codes: 0 on success, 1 on validation failure, 2 on usage errors
(argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys

from .circle import AngleError, parse_angle
from .core import LaminationError
from .fdl import (
    FDL,
    FdlError,
    build_pullback_tree,
    canonical_form,
    enumerate_children,
    validate_fdl,
)
from .io import (
    DocumentError,
    export_dot_gengraph,
    export_dot_tree,
    lamination_from_document,
    load_chordset,
    load_lamination,
    oeis_compare,
    parse_bfile,
    render_svg,
    save_lamination,
    write_atomic,
)
from .paramgraph import ParamGraphError, closure_is_refinement, generational_graph
from .portraits import (
    PortraitError,
    count_all,
    count_injective,
    enumerate_all_portraits,
    enumerate_injective_portraits,
)
from .pullback import (
    Chord,
    CriticalChordSet,
    PullbackError,
    lamination_distance,
    place_critical_chords,
    properness_report,
    pullback_lamination,
)

VALIDATION_ERRORS = (
    AngleError,
    DocumentError,
    FdlError,
    LaminationError,
    ParamGraphError,
    PortraitError,
    PullbackError,
    OSError,
)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cmd_validate(args) -> int:
    lam = lamination_from_document(_read(args.file))
    report = validate_fdl(lam)
    for num in sorted(report.axioms):
        res = report.axioms[num]
        status = "pass" if res.passed else "FAIL"
        print(f"axiom {num}: {status}")
        for w in res.witnesses:
            print(f"  {w}")
    if report.valid:
        print(f"valid: depth parameter n = {report.depth_n}")
        print(f"canonical: {canonical_form(lam)}")
        return 0
    print("invalid")
    return 1


def cmd_portraits(args) -> int:
    i, n = args.i, args.n
    if args.list or args.all:
        shapes = enumerate_all_portraits(i, n) if args.all else enumerate_injective_portraits(i, n)
        for s in shapes:
            print(s)
        print(f"total: {len(shapes)}")
    else:
        print(f"injective f({i},{n}) = {count_injective(i, n)}")
        print(f"all       F({i},{n}) = {count_all(i, n)}")
    return 0


def cmd_children(args) -> int:
    lam = load_lamination(_read(args.file))
    fdl = FDL.validate(lam)
    children = enumerate_children(fdl)
    for child in children:
        print(json.dumps(save_lamination(child.lamination, level=child.depth_n)))
    print(f"children: {len(children)}", file=sys.stderr)
    return 0


def cmd_tree(args) -> int:
    lam = load_lamination(_read(args.file))
    root = FDL.validate(lam)
    if root.depth_n != 0:
        print(f"root must be its own image (depth parameter 0, got {root.depth_n})", file=sys.stderr)
        return 1
    tree = build_pullback_tree(root, args.depth)
    counts = tree.level_counts()
    print(f"level counts: {counts}")
    if args.dot:
        write_atomic(args.dot, export_dot_tree(tree))
        print(f"wrote {args.dot}")
    if args.counts:
        write_atomic(args.counts, json.dumps(counts) + "\n")
        print(f"wrote {args.counts}")
    return 0


def cmd_gengraph(args) -> int:
    lam = load_lamination(_read(args.file))
    root = FDL.validate(lam)
    tree = build_pullback_tree(root, args.level)
    graph = generational_graph(tree, args.level)
    print(f"vertices: {len(graph.vertices)}, edges: {len(graph.edges)}")
    print(f"closure matches refinement: {closure_is_refinement(graph)}")
    if args.dot:
        write_atomic(args.dot, export_dot_gengraph(graph))
        print(f"wrote {args.dot}")
    return 0


def cmd_complete(args) -> int:
    lam = load_lamination(_read(args.file))
    placements = place_critical_chords(lam, enumerate_all=args.all)
    for cs in placements:
        chords = [[str(c.a), str(c.b)] for c in cs.chords]
        print(json.dumps({"degree": cs.degree, "chords": chords}))
    return 0


def _parse_chord_list(text: str, d: int) -> CriticalChordSet:
    chords = []
    for part in text.split(","):
        if ":" not in part:
            raise PullbackError(f"chord {part!r} must look like a:b")
        left, right = part.split(":", 1)
        chords.append(Chord(parse_angle(left.strip(), d), parse_angle(right.strip(), d)))
    return CriticalChordSet.create(d, chords)


def cmd_pullback(args) -> int:
    lam = load_lamination(_read(args.file))
    crit = _parse_chord_list(args.chords, lam.degree)
    seq = pullback_lamination(lam, crit, args.depth)
    print(f"chord counts per level: {seq.counts()}")
    if args.svg:
        write_atomic(args.svg, render_svg(seq.levels, geodesics=args.geodesics))
        print(f"wrote {args.svg}")
    return 0


def cmd_distance(args) -> int:
    a = load_chordset(_read(args.a))
    b = load_chordset(_read(args.b))
    print(lamination_distance(a, b))
    return 0


def cmd_proper(args) -> int:
    chords = load_chordset(_read(args.file))
    report = properness_report(chords)
    print(f"critical leaves with periodic endpoint: {len(report.critical_leaves_with_periodic_endpoint)}")
    for c in report.critical_leaves_with_periodic_endpoint:
        print(f"  {c}")
    print(f"critical wedges with periodic vertex: {len(report.critical_wedges_with_periodic_vertex)}")
    for v, c1, c2 in report.critical_wedges_with_periodic_vertex:
        print(f"  vertex {v}: {c1} {c2}")
    print(f"unclean points: {len(report.unclean_points)}")
    for v, k in report.unclean_points:
        print(f"  {v}: {k} leaves")
    print(f"period mismatch leaves: {len(report.period_mismatch_leaves)}")
    for c in report.period_mismatch_leaves:
        print(f"  {c}")
    print(f"proper so far: {report.proper_so_far}")
    return 0


def cmd_render(args) -> int:
    try:
        target = load_lamination(_read(args.file))
    except DocumentError:
        target = load_chordset(_read(args.file))
    svg = render_svg(target, geodesics=args.geodesics)
    if args.svg:
        write_atomic(args.svg, svg)
        print(f"wrote {args.svg}")
    else:
        print(svg, end="")
    return 0


def cmd_oeis_compare(args) -> int:
    counts_text = _read(args.counts).strip()
    try:
        counts = json.loads(counts_text)
    except json.JSONDecodeError:
        counts = [int(x) for x in counts_text.split()]
    if not isinstance(counts, list) or not all(isinstance(x, int) for x in counts):
        raise DocumentError("counts file must hold a JSON list or whitespace-separated integers")
    bfile = parse_bfile(_read(args.bfile))
    report = oeis_compare(counts, bfile)
    for row in report["rows"]:
        mark = "ok" if row["match"] else "MISMATCH"
        print(f"index {row['index']}: computed {row['computed']} reference {row['reference']} {mark}")
    print(report["verdict"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lamkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check the defining axioms of a lamination file")
    s.add_argument("file")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("portraits", help="count or list sibling portraits")
    s.add_argument("--i", type=int, required=True, help="ambient degree of the region")
    s.add_argument("--n", type=int, required=True, help="target polygon size")
    s.add_argument("--list", action="store_true", help="list one-to-one portraits")
    s.add_argument("--all", action="store_true", help="list all portraits")
    s.set_defaults(func=cmd_portraits)

    s = sub.add_parser("children", help="enumerate one-level pullbacks of a lamination")
    s.add_argument("file")
    s.set_defaults(func=cmd_children)

    s = sub.add_parser("tree", help="build the pullback tree from a self-image root")
    s.add_argument("file")
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--dot", help="write the tree as DOT")
    s.add_argument("--counts", help="write per-level counts as JSON")
    s.set_defaults(func=cmd_tree)

    s = sub.add_parser("gengraph", help="generational graph of one tree level")
    s.add_argument("file")
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--dot", help="write the graph as DOT")
    s.set_defaults(func=cmd_gengraph)

    s = sub.add_parser("complete", help="place critical chords into the gaps")
    s.add_argument("file")
    s.add_argument("--all", action="store_true", help="enumerate anchor choices")
    s.set_defaults(func=cmd_complete)

    s = sub.add_parser("pullback", help="iterate chord pullback along critical chords")
    s.add_argument("file")
    s.add_argument("--chords", required=True, help='critical chords, e.g. "1/7:9/14"')
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--svg", help="render the final level to SVG")
    s.add_argument("--geodesics", choices=("straight", "arc"), default="straight")
    s.set_defaults(func=cmd_pullback)

    s = sub.add_parser("distance", help="exact distance between two lamination files")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(func=cmd_distance)

    s = sub.add_parser("proper", help="properness and cleanliness scan")
    s.add_argument("file")
    s.set_defaults(func=cmd_proper)

    s = sub.add_parser("render", help="render a lamination or chord set to SVG")
    s.add_argument("file")
    s.add_argument("--geodesics", choices=("straight", "arc"), default="straight")
    s.add_argument("--svg", help="output path (stdout when omitted)")
    s.set_defaults(func=cmd_render)

    s = sub.add_parser("oeis-compare", help="compare level counts against a local b-file")
    s.add_argument("--counts", required=True)
    s.add_argument("--bfile", required=True)
    s.set_defaults(func=cmd_oeis_compare)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
