import json
import os
import random
import stat
from fractions import Fraction as F

import pytest

from lamkit.circle import AngleError, format_itinerary, parse_angle
from lamkit.core import Chord, ChordSet, ClassLamination, PolygonClass, chords_cross
from lamkit.fdl import build_pullback_tree, canonical_form
from lamkit.io import (
    BFile,
    DocumentError,
    dumps,
    export_dot_gengraph,
    export_dot_tree,
    load_chordset,
    load_lamination,
    oeis_compare,
    parse_bfile,
    render_svg,
    save_lamination,
    write_atomic,
)
from lamkit.paramgraph import generational_graph

from helpers import all_edges, fraction_load_lamination


def test_load_rabbit_document():
    lam = load_lamination('{"degree": 2, "classes": [["_001", "_010", "_100"]]}')
    assert canonical_form(lam) == "2|1/7,2/7,4/7"


def test_load_cubic_pair():
    doc = {
        "degree": 3,
        "classes": [["_001", "_010", "_100"], ["_112", "_121", "_211"]],
    }
    lam = load_lamination(json.dumps(doc))
    assert canonical_form(lam) == "3|1/26,3/26,9/26|7/13,8/13,11/13"


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all {",
        '{"classes": [["1/7","2/7"]]}',
        '{"degree": 1, "classes": []}',
        '{"degree": 2, "classes": [["1/7"]]}',
        '{"degree": 2, "classes": [["1/7", "bogus"]]}',
        '{"degree": 2, "classes": [["0", "1/2"], ["1/4", "3/4"]]}',
        '{"degree": 2}',
        '{"degree": 2, "classes": [["1/7", "2/7", "4/7"]], "chords": []}',
    ],
)
def test_load_rejects(doc):
    with pytest.raises(DocumentError):
        load_lamination(doc)


@pytest.mark.parametrize(
    "classes, message",
    [
        ([["1/3", "1/3"], ["1/0", "1/2"]], "classes[0]: duplicate vertices in {1/3,1/3}"),
        ([["1/3", "2/3"], ["1/0", "1/2"]], "classes[1][0]: zero denominator in '1/0'"),
        (
            [["1/7", "2/7", "4/7"], ["_012", "1/2"]],
            "classes[1][0]: digit 2 out of range for base 2 in '_012'",
        ),
        ([["1/7", "2/7", "4/7"], ["1/3"]], "classes[1] must list >= 2 angle literals"),
        ([["1/3", "2/3"], ["4/6", "1/6"]], "classes {1/6,2/3} and {1/3,2/3} share a vertex"),
        # a crossing comes before a class listed twice
        ([["0", "1/2"], ["1/4", "3/4"], ["1/2", "0"]], "classes {0,1/2} and {1/4,3/4} cross"),
        (
            [["1/3", "2/3"], ["2/3", "1/3"], ["1/6", "5/6"], ["1/6", "5/6"]],
            "classes[0] and classes[1] list the same class {1/3,2/3}",
        ),
    ],
)
def test_load_error_texts_and_their_precedence(classes, message):
    with pytest.raises(DocumentError) as exc:
        load_lamination({"degree": 2, "classes": classes})
    assert str(exc.value) == message


def _literal(rng, v, d) -> str:
    """A random literal of the angle v: reduced, unreduced and moved by whole
    turns, spaced, an integer when v is 0, or a base-d itinerary."""
    p, q, k = v.numerator, v.denominator, rng.randrange(1, 4)
    form = rng.randrange(5 if p == 0 else 4)
    if form == 3:
        return format_itinerary(v, d)
    if form == 4:
        return str(rng.randrange(-3, 4))
    return [str(v), f"{(p + rng.randrange(-2, 3) * q) * k}/{q * k}", f" {p} / {q} "][form]


def _shuffled_document(rng, lam) -> dict:
    """The lamination as a class document, or one in five times a chord
    document, with its classes, chords and vertices in random order."""
    d = lam.degree
    if rng.randrange(5) == 0:
        chords = [[_literal(rng, v, d) for v in rng.sample([c.a, c.b], 2)] for c in all_edges(lam)]
        rng.shuffle(chords)
        return {"degree": d, "chords": chords}
    classes = [[_literal(rng, v, d) for v in rng.sample(c.vertices, len(c))] for c in lam.classes]
    rng.shuffle(classes)
    return {"degree": d, "classes": classes}


def _malform(rng, doc):
    """Apply one random fault to a class document: a repeated vertex, a bad
    literal, a short class or no list, a class listed twice, a vertex taken
    from another class, or a new leaf that may cross."""
    d, classes = doc["degree"], doc["classes"]
    whole = [i for i, c in enumerate(classes) if isinstance(c, list) and len(c) >= 2]
    if not whole:
        return
    ci = rng.choice(whole)
    fault = rng.randrange(6)
    if fault == 0:
        cls = classes[ci]
        cls.insert(rng.randrange(len(cls) + 1), _literal(rng, parse_angle(rng.choice(cls), d), d))
    elif fault == 1:
        bad = rng.choice(["1/0", "abc", "1.5", "_", "_9", "9_1", "3_", None, 7])
        classes[ci][rng.randrange(len(classes[ci]))] = bad
    elif fault == 2:
        classes[ci] = rng.choice([classes[ci][:1], [], "1/3"])
    elif fault == 3:
        twin = [_literal(rng, parse_angle(lit, d), d) for lit in rng.sample(classes[ci], len(classes[ci]))]
        classes.insert(rng.randrange(len(classes) + 1), twin)
    elif fault == 4:
        classes[ci].append(rng.choice(classes[rng.choice(whole)]))
    else:
        q = rng.choice([4, 6, 8, 12, 14, 26])
        a, b = rng.sample(range(q), 2)
        classes.insert(rng.randrange(len(classes) + 1), [f"{a}/{q}", f"{b}/{q}"])


_LOAD_ERRORS = (
    "duplicate vertices",
    "zero denominator",
    "out of range",
    "cannot parse",
    "must be a string",
    "must list",
    "share a vertex",
    "cross",
    "list the same class",
)


def _faulty_chord_document(rng, lam) -> dict:
    """The lamination's hull edges as a chord document in random order and
    mixed literals, after zero to three faults: a hull edge dropped, a
    diagonal of a class or a chord joining two classes, a degenerate chord,
    or a random chord that may cross."""
    d, classes = lam.degree, lam.sorted_classes()
    chords = [(c.a, c.b) for c in sorted(all_edges(lam))]
    for _ in range(rng.randrange(4)):
        fault = rng.randrange(4)
        if fault == 0 and chords:
            chords.pop(rng.randrange(len(chords)))
        elif fault == 1:
            big = [c for c in classes if len(c) >= 4]
            if big and rng.randrange(2):
                vs = rng.choice(big).vertices
                i = rng.randrange(len(vs))
                chords.append((vs[i], vs[(i + rng.randrange(2, len(vs) - 1)) % len(vs)]))
            elif len(classes) >= 2:
                p, q = rng.sample(classes, 2)
                chords.append((rng.choice(p.vertices), rng.choice(q.vertices)))
        elif fault == 2:
            v = rng.choice(classes).vertices[0] if classes and rng.randrange(2) else F(rng.randrange(12), 12)
            chords.append((v, v))
        else:
            q = rng.choice([4, 6, 8, 12, 14, 26])
            chords.append(tuple(F(x, q) for x in rng.sample(range(q), 2)))
    rng.shuffle(chords)
    return {"degree": d, "chords": [[_literal(rng, v, d) for v in rng.sample(c, 2)] for c in chords]}


_CHORD_ERRORS = ("not the hull edges", "cross", "degenerate")


def _assert_loads_like_the_oracle(doc):
    text = json.dumps(doc)
    try:
        want = fraction_load_lamination(text)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as err:
            load_lamination(text)
        assert str(err.value) == str(exc), text
        return str(exc)
    got = load_lamination(text)
    assert list(got.classes) == list(want.classes), text  # both built from the sorted view
    assert list(got.as_chordset().chords) == list(want.as_chordset().chords), text
    assert got._view == want._view, text  # the oracle derives its view afresh
    assert canonical_form(got) == canonical_form(want)
    assert save_lamination(got) == save_lamination(want)
    return None


def test_load_matches_the_fraction_oracle(basilica_tree, rabbit_root, cubic_tree):
    # basilica <= 8, rabbit <= 7 and cubic <= 3 (246 nodes), saved; then
    # seeded documents with shuffled classes and vertices and mixed literals;
    # then seeded faults of class and of chord documents, which must raise
    # the oracle's text (for chords, naming the least failing chord's group)
    rabbit_tree = build_pullback_tree(rabbit_root, 7)
    lams = [n.lamination for t in (basilica_tree, rabbit_tree, cubic_tree) for n in t.all_nodes()]
    assert len(lams) == 246
    for lam in lams:
        assert _assert_loads_like_the_oracle(save_lamination(lam)) is None
    rng = random.Random(33)
    small = [lam for lam in lams if len(lam.classes) <= 16]  # 21 laminations, to bound the time
    for _ in range(2000):
        assert _assert_loads_like_the_oracle(_shuffled_document(rng, rng.choice(small))) is None
    errors = {}
    for _ in range(1000):
        doc = _shuffled_document(rng, rng.choice(small))
        if "classes" not in doc:
            continue
        for _ in range(rng.randrange(1, 4)):
            try:
                _malform(rng, doc)
            except AngleError:
                pass  # the fault read a literal that an earlier fault broke
        text = _assert_loads_like_the_oracle(doc)
        kind = "valid" if text is None else next(k for k in _LOAD_ERRORS if k in text)
        errors[kind] = errors.get(kind, 0) + 1
    # 23 to 203 of each error when this test was written
    assert all(errors.get(k, 0) >= 20 for k in _LOAD_ERRORS), errors
    kinds = {}
    for _ in range(1500):
        text = _assert_loads_like_the_oracle(_faulty_chord_document(rng, rng.choice(small)))
        kind = "valid" if text is None else next(k for k in _CHORD_ERRORS if k in text)
        kinds[kind] = kinds.get(kind, 0) + 1
    # 130 to 481 of each when this test was written
    assert all(kinds.get(k, 0) >= 20 for k in ("valid", *_CHORD_ERRORS)), kinds


def test_save_load_round_trip_randomized(rabbit_tree):
    rng = random.Random(5)
    corpus = [n.lamination for n in rabbit_tree.all_nodes()]
    # plus random non-crossing leaf collections
    for _ in range(100):
        classes = []
        used = set()
        for _ in range(rng.randrange(0, 4)):
            den = rng.choice([8, 12, 20, 28])
            a, b = F(rng.randrange(den), den), F(rng.randrange(den), den)
            if a == b or used & {a, b}:
                continue
            cand = PolygonClass((a, b))
            if any(
                chords_cross(e, o) for e in cand.edges() for c in classes for o in c.edges()
            ):
                continue
            classes.append(cand)
            used |= {a, b}
        corpus.append(ClassLamination.create(2, classes))
    for lam in corpus:
        if not lam.classes:
            continue
        doc = save_lamination(lam)
        back = load_lamination(json.dumps(doc))
        assert canonical_form(back) == canonical_form(lam)
        assert save_lamination(back) == doc


def test_load_chordset_supports_both_schemas():
    via_classes = load_chordset('{"degree": 2, "classes": [["_001", "_010", "_100"]]}')
    assert len(via_classes.chords) == 3
    via_chords = load_chordset(
        '{"degree": 2, "chords": [["0", "1/4"], ["0", "3/4"]]}'
    )
    assert len(via_chords.chords) == 2  # wedges allowed


def test_dot_exports_deterministic(rabbit_tree):
    a = export_dot_tree(rabbit_tree)
    b = export_dot_tree(rabbit_tree)
    assert a == b
    assert a.count("->") == sum(rabbit_tree.level_counts()) - 1
    g = generational_graph(rabbit_tree, 4)
    dot = export_dot_gengraph(g)
    assert dot == export_dot_gengraph(g)
    assert dot.count("rank=same") == 2  # trapped 0 and trapped 1


def test_render_svg_straight_and_arc(rabbit_tree):
    lam = rabbit_tree.levels[4][0].lamination
    for geodesics in ("straight", "arc"):
        svg = render_svg(lam, geodesics=geodesics)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<path") == len(all_edges(lam))


def test_render_svg_handles_wedges_and_tiny_chords():
    cs = ChordSet.create(
        2,
        [
            Chord(F(0), F(1, 4)),
            Chord(F(0), F(3, 4)),
            Chord(F(1, 2), F(1, 2) + F(1, 10**9)),
            Chord(F(1, 4), F(3, 4)),  # diameter stays straight in arc mode
        ],
    )
    svg = render_svg(cs, geodesics="arc")
    assert svg.count("<path") == 4


def test_render_svg_empty():
    svg = render_svg(ClassLamination.create(2, []))
    assert "<circle" in svg and "<path" not in svg


def test_render_svg_deterministic(rabbit_tree):
    lam = rabbit_tree.levels[5][0].lamination
    assert render_svg(lam, geodesics="arc") == render_svg(lam, geodesics="arc")


def test_write_atomic(tmp_path):
    path = tmp_path / "out.txt"
    write_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert not leftovers
    old = os.umask(0o022)
    try:
        # a new file gets the mode that open(path, "w") would give it
        for mask in (0o022, 0o077):
            os.umask(mask)
            fresh = tmp_path / f"new-{mask:03o}.txt"
            write_atomic(str(fresh), "again\n")
            assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~mask
        # a rewrite keeps the mode of the file it replaces, as open(path, "w") does
        os.chmod(path, 0o600)
        os.umask(0o022)
        write_atomic(str(path), "again\n")
        assert path.read_text() == "again\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
    finally:
        os.umask(old)


def test_write_atomic_writes_through_a_symbolic_link(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    os.chmod(target, 0o600)
    link.symlink_to(target)
    write_atomic(str(link), "new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_write_atomic_names_the_path_when_the_rename_fails(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as err:
        write_atomic(str(target), "text\n")
    assert err.value.filename == str(target)
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".lamkit-")]


def test_parse_bfile():
    bf = parse_bfile("# header\n0 1\n1 1\n\n2 3 # tail comment\n")
    assert bf.entries == ((0, 1), (1, 1), (2, 3))
    with pytest.raises(DocumentError):
        parse_bfile("0 1\n0 2\n")
    with pytest.raises(DocumentError):
        parse_bfile("0 1 2\n")


def test_oeis_compare():
    bf = parse_bfile("0 1\n1 1\n2 1\n3 3\n4 5\n")
    ok = oeis_compare([1, 1, 1, 3, 5], bf)
    assert ok["verdict"] == "consistent with conjecture up to depth 4"
    assert ok["first_mismatch"] is None
    bad = oeis_compare([1, 2], parse_bfile("1 1\n2 3\n"))
    assert bad["verdict"] == "mismatch at index 2"
    longer = oeis_compare([1, 1, 1], parse_bfile("0 1\n"))
    assert longer["compared"] == 1


def test_load_rejects_a_class_listed_twice():
    doc = '{"degree": 2, "classes": [["1/3","2/3"],["2/3","1/3"]]}'
    with pytest.raises(DocumentError) as exc:
        load_lamination(doc)
    assert str(exc.value) == "classes[0] and classes[1] list the same class {1/3,2/3}"
    doc = (
        '{"degree": 2, "classes": '
        '[["1/7","2/7","4/7"], ["1/14","9/14","11/14"], ["_010","_100","_001"]]}'
    )
    with pytest.raises(DocumentError, match=r"^classes\[0\] and classes\[2\] "):
        load_lamination(doc)
    # a chord set is a set of leaves: a chord listed twice is one leaf
    chords = '{"degree": 2, "chords": [["1/3","2/3"],["2/3","1/3"]]}'
    assert canonical_form(load_lamination(chords)) == "2|1/3,2/3"
