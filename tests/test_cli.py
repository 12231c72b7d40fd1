import json

import pytest

from lamkit.cli import main
from lamkit.core import PARTLY_CRITICAL, ClassLamination, DegreeStatus, criticality_audit
from lamkit.fdl import FDL
from lamkit.io import load_lamination
from lamkit.pullback import PullbackError, place_critical_chords

RABBIT_DOC = '{"degree": 2, "classes": [["_001", "_010", "_100"]]}\n'
LEVEL1_DOC = (
    '{"degree": 2, "classes": [["_001", "_010", "_100"],'
    ' ["1/14", "9/14", "11/14"]]}\n'
)
NO_CRITICAL_GAP_DOC = '{"degree": 2, "classes": [["1/12", "3/8"], ["5/12", "5/8"], ["1/24", "19/24"]]}\n'


@pytest.fixture()
def rabbit_file(tmp_path):
    p = tmp_path / "rabbit.json"
    p.write_text(RABBIT_DOC)
    return str(p)


@pytest.fixture()
def level1_file(tmp_path):
    p = tmp_path / "level1.json"
    p.write_text(LEVEL1_DOC)
    return str(p)


def test_validate_ok(rabbit_file, capsys):
    assert main(["validate", rabbit_file]) == 0
    out = capsys.readouterr().out
    assert "valid: depth parameter n = 0" in out


def test_validate_failure(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"degree": 2, "classes": [["0", "1/2"]]}')
    assert main(["validate", str(p)]) == 1
    assert "axiom 2: FAIL" in capsys.readouterr().out


def test_validate_accepts_chord_documents(tmp_path, capsys):
    p = tmp_path / "edges.json"
    p.write_text(
        '{"degree": 2, "chords": [["1/7", "2/7"], ["2/7", "4/7"], ["1/7", "4/7"]]}'
    )
    assert main(["validate", str(p)]) == 0
    assert "valid: depth parameter n = 0" in capsys.readouterr().out


def test_validate_rejects_non_hull_chords(tmp_path, capsys):
    # hexagon boundary plus a diagonal is not a class-edge system
    p = tmp_path / "diag.json"
    p.write_text(
        '{"degree": 2, "chords": [["1/14", "1/7"], ["1/7", "2/7"], ["2/7", "4/7"],'
        ' ["4/7", "9/14"], ["9/14", "11/14"], ["11/14", "1/14"], ["1/7", "4/7"]]}'
    )
    assert main(["validate", str(p)]) == 1
    assert "hull edges" in capsys.readouterr().err


def test_tree_reads_chord_documents(tmp_path, rabbit_file, capsys):
    p = tmp_path / "edges.json"
    p.write_text(
        '{"degree": 2, "chords": [["1/7", "2/7"], ["2/7", "4/7"], ["1/7", "4/7"]]}'
    )
    assert main(["tree", rabbit_file, "--depth", "4"]) == 0
    want = capsys.readouterr().out
    assert "level counts: [1, 1, 1, 1, 4]" in want
    assert main(["tree", str(p), "--depth", "4"]) == 0
    assert capsys.readouterr().out == want


def test_tree_rejects_non_hull_chords(tmp_path, capsys):
    p = tmp_path / "diag.json"
    p.write_text(
        '{"degree": 2, "chords": [["1/14", "1/7"], ["1/7", "2/7"], ["2/7", "4/7"],'
        ' ["4/7", "9/14"], ["9/14", "11/14"], ["11/14", "1/14"], ["1/7", "4/7"]]}'
    )
    assert main(["tree", str(p), "--depth", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "hull edges" in captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["tree"])  # missing required args
    assert exc.value.code == 2


def test_missing_file_is_failure(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 1


def test_portraits_counts(capsys):
    assert main(["portraits", "--i", "2", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "f(2,3) = 3" in out and "F(2,3) = 4" in out


@pytest.mark.parametrize(
    "i, n, message",
    [
        ("0", "3", "ambient degree i must be >= 1, got 0"),
        ("2", "1", "polygon size n must be >= 2, got 1"),
        # counts past CPython's limit on str(int): both are checked before either prints
        ("6000", "2", "all F(6000,2) has 4970 digits, too long to convert"),
        ("10000", "2", "injective f(10000,2) has 6015 digits, too long to convert"),
    ],
)
def test_portraits_out_of_range_are_classified(capsys, i, n, message):
    assert main(["portraits", "--i", i, "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_portraits_list(capsys):
    assert main(["portraits", "--i", "2", "--n", "2", "--all"]) == 0
    assert "total: 3" in capsys.readouterr().out


def test_children(level1_file, capsys):
    assert main(["children", level1_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    doc = json.loads(out[0])
    assert doc["level"] == 2


def test_tree_and_outputs(rabbit_file, tmp_path, capsys):
    dot = tmp_path / "tree.dot"
    counts = tmp_path / "counts.json"
    assert (
        main(
            [
                "tree",
                rabbit_file,
                "--depth",
                "4",
                "--dot",
                str(dot),
                "--counts",
                str(counts),
            ]
        )
        == 0
    )
    assert json.loads(counts.read_text()) == [1, 1, 1, 1, 4]
    assert dot.read_text().startswith("digraph")


def test_tree_rejects_non_root(level1_file):
    assert main(["tree", level1_file, "--depth", "1"]) == 1


def test_gengraph(rabbit_file, tmp_path, capsys):
    dot = tmp_path / "gen.dot"
    assert main(["gengraph", rabbit_file, "--level", "4", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "vertices: 4, edges: 3" in out
    assert "closure matches refinement: True" in out
    assert "rank=same" in dot.read_text()


def test_complete(level1_file, capsys):
    assert main(["complete", level1_file]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc == {"degree": 2, "chords": [["1/14", "4/7"]]}


def test_complete_partly_critical(rabbit_file, capsys):
    assert main(["complete", rabbit_file]) == 1


def test_complete_without_a_critical_gap(tmp_path, capsys):
    # every gap has degree 1, so the audit applies, fails with excess 0 and
    # leaves nothing to place
    p = tmp_path / "no-critical-gap.json"
    p.write_text(NO_CRITICAL_GAP_DOC)
    lam = load_lamination(NO_CRITICAL_GAP_DOC)
    audit = criticality_audit(lam)
    assert (audit.applicable, audit.passed, audit.excess) == (True, False, 0)
    with pytest.raises(PullbackError, match=r"^no critical gaps; nothing to place$"):
        place_critical_chords(lam)
    assert main(["complete", str(p)]) == 1
    assert capsys.readouterr() == ("", "error: no critical gaps; nothing to place\n")
    # printed forms
    assert [str(e.status) for e in audit.entries] == ["Degree(1)"] * 7
    assert str(DegreeStatus(PARTLY_CRITICAL)) == "partly_critical"
    (full,) = criticality_audit(ClassLamination.create(2, [])).entries
    assert (str(full.gap), str(full.status)) == ("RoundGap(full circle)", "Degree(2)")
    assert str(lam) == "ClassLamination(d=2, 3 classes)"
    assert str(FDL(load_lamination(RABBIT_DOC))) == "FDL(n=0, 2|1/7,2/7,4/7)"

def test_pullback_and_svg(rabbit_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    assert (
        main(
            [
                "pullback",
                rabbit_file,
                "--chords",
                "1/7:9/14",
                "--depth",
                "2",
                "--svg",
                str(svg),
            ]
        )
        == 0
    )
    assert "chord counts per level: [3, 7, 15]" in capsys.readouterr().out
    assert svg.read_text().startswith("<svg")


def test_distance(rabbit_file, level1_file, capsys):
    assert main(["distance", rabbit_file, level1_file]) == 0
    assert capsys.readouterr().out.strip() == "2/7"


def test_distance_degree_mismatch(rabbit_file, tmp_path, capsys):
    p = tmp_path / "cubic.json"
    p.write_text('{"degree": 3, "chords": [["0", "1/3"]]}')
    assert main(["distance", str(p), rabbit_file]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: degree mismatch")
    assert captured.out == ""


def test_distances_past_the_digit_limit_are_classified(tmp_path, capsys):
    # each literal's denominator, 10**2500 + 1 or + 3, has 2,501 decimal
    # digits; the exact distance's has 5,001, past CPython's limit on str(int)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"degree": 2, "chords": [["1/1%s1", "1/2"]]}' % ("0" * 2499))
    b.write_text('{"degree": 2, "chords": [["1/1%s3", "1/2"]]}' % ("0" * 2499))
    assert main(["distance", str(a), str(b)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: distance's denominator has 5001 digits, too long to convert\n"
    assert captured.out == ""


def test_proper(level1_file, capsys):
    assert main(["proper", level1_file]) == 0
    assert "proper so far: True" in capsys.readouterr().out


def test_proper_lists_period_mismatch_leaves(tmp_path, capsys):
    # 1/7 has period 3 and 1/3 has period 2
    p = tmp_path / "mismatch.json"
    p.write_text('{"degree":2,"chords":[["1/7","1/3"]]}')
    assert main(["proper", str(p)]) == 0
    out = capsys.readouterr().out
    assert "period mismatch leaves: 1\n  (1/7,1/3)\n" in out


def test_proper_lists_critical_leaves_wedges_and_unclean_points(tmp_path, capsys):
    # 0 is fixed; (0,1/3) and (0,5/6) both map to (0,2/3)
    p = tmp_path / "wedge.json"
    p.write_text('{"degree": 2, "chords": [["0","1/2"],["0","1/3"],["0","5/6"]]}')
    assert main(["proper", str(p)]) == 0
    assert capsys.readouterr().out == (
        "critical leaves with periodic endpoint: 1\n"
        "  (0,1/2)\n"
        "critical wedges with periodic vertex: 1\n"
        "  vertex 0: (0,1/3) (0,5/6)\n"
        "unclean points: 1\n"
        "  0: 3 leaves\n"
        "period mismatch leaves: 3\n"
        "  (0,1/3)\n"
        "  (0,1/2)\n"
        "  (0,5/6)\n"
        "proper so far: False\n"
    )


def test_children_of_invalid_lamination_is_classified(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"degree":2,"classes":[["1/5","2/5"]]}')
    assert main(["children", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "image of (1/5,2/5) is not a leaf" in err
    assert "AxiomResult(" not in err and "internal error" not in err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("validate", '{"degree":2,"classes":[["0","1/2"],["1/4","3/4"]]}'),
        ("proper", '{"degree":2,"chords":[["0","1/2"],["1/4","3/4"]]}'),
    ],
)
def test_crossing_documents_are_classified(tmp_path, capsys, command, doc):
    p = tmp_path / "cross.json"
    p.write_text(doc)
    assert main([command, str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.rstrip().endswith("cross")


def test_render_stdout(rabbit_file, capsys):
    assert main(["render", rabbit_file, "--geodesics", "arc"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_render_svg_file(rabbit_file, tmp_path, capsys):
    svg = tmp_path / "rabbit.svg"
    assert main(["render", rabbit_file, "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == f"wrote {svg}\n"
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("validate", '[["0", "1/2"]]', "document must be a JSON object"),
        ("proper", '[["0", "1/2"]]', "document must be a JSON object"),
        ("validate", '{"degree": "2", "classes": []}', "'degree' must be an integer, got '2'"),
        ("proper", '{"degree": 2, "chords": [["0"]]}', "chords[0] must be a two-element list"),
        (
            "render",
            '{"degree": 2, "chords": [["0", "bogus"]]}',
            "chords[0]: cannot parse angle literal 'bogus' (expected p/q or digits_digits)",
        ),
        ("validate", '{"degree": 2, "classes": [[1, "1/2"]]}', "classes[0][0]: angle literal must be a string, got 1"),
    ],
)
def test_malformed_documents_are_classified(tmp_path, capsys, command, doc, message):
    p = tmp_path / "doc.json"
    p.write_text(doc)
    assert main([command, str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_chord_document_errors_print_the_class(tmp_path, capsys):
    p = tmp_path / "path.json"
    p.write_text('{"degree": 2, "chords": [["1/7","2/7"],["2/7","4/7"]]}')
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: chords at {1/7,2/7,4/7} are not the hull edges of their class\n"
    assert captured.out == ""


_BIG = "1" * 5000


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "validate",
            '{"degree": 2, "classes": [["%s/3", "2/3"]]}' % _BIG,
            "classes[0][0]: angle literal has a 5000-digit integer, too long to convert",
        ),
        ("validate", '{"degree": %s, "classes": []}' % _BIG, "invalid JSON: an integer has too many digits"),
        ("oeis-compare", "[1, %s]" % _BIG, "counts file must hold a JSON list or whitespace-separated integers"),
    ],
)
def test_oversized_integers_are_classified(tmp_path, capsys, command, text, message):
    # integers past CPython's limit on decimal digits, in a class literal, a
    # JSON document and a counts file; the error does not echo the literal
    p, bfile = tmp_path / "big", tmp_path / "b.txt"
    p.write_text(text)
    bfile.write_text("0 1\n")
    args = [command, str(p)]
    if command == "oeis-compare":
        args = [command, "--counts", str(p), "--bfile", str(bfile)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_oversized_denominators_and_bfile_values_are_classified(tmp_path, capsys):
    # an itinerary whose denominator 2**15001 - 1 has 4,516 decimal digits,
    # and a 5,000-digit b-file value: both past CPython's limit on decimal
    # digits, named without echoing the literal or the interpreter's advice
    doc, counts, bfile = tmp_path / "doc.json", tmp_path / "counts.json", tmp_path / "b.txt"
    doc.write_text('{"degree": 2, "classes": [["_%s1", "1/2"]]}' % ("0" * 15000))
    counts.write_text("[1, 1]")
    bfile.write_text("0 1\n1 %s\n" % _BIG)
    compare = ["oeis-compare", "--counts", str(counts), "--bfile", str(bfile)]
    for args, message in (
        (["validate", str(doc)], "classes[0][0]: angle literal's denominator has 4516 digits, too long to convert"),
        (compare, "line 2: value has 5000 digits, too long to convert"),
    ):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_oeis_compare_cli(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text("[1, 1, 1, 3]")
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 1\n1 1\n2 1\n3 3\n4 5\n")
    assert main(["oeis-compare", "--counts", str(counts), "--bfile", str(bfile)]) == 0
    assert "consistent with conjecture up to depth 3" in capsys.readouterr().out
    # JSON booleans are no counts, though Python's bool is an int
    counts.write_text("[true, true, true, false]")
    assert main(["oeis-compare", "--counts", str(counts), "--bfile", str(bfile)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: counts file must hold") and captured.out == ""


@pytest.mark.parametrize(
    "bfile_text, counts_text, verdict",
    [("# comments only\n", "[1, 1]", "empty b-file; nothing to compare"), ("0 1\n1 1\n", "[]", "no overlapping indices")],
)
def test_oeis_compare_without_overlap(tmp_path, capsys, bfile_text, counts_text, verdict):
    counts = tmp_path / "counts.json"
    counts.write_text(counts_text)
    bfile = tmp_path / "b.txt"
    bfile.write_text(bfile_text)
    assert main(["oeis-compare", "--counts", str(counts), "--bfile", str(bfile)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{verdict}\n"
    assert captured.err == ""


def test_chords_that_are_not_a_list_are_classified(tmp_path, capsys):
    p = tmp_path / "chords.json"
    p.write_text('{"degree": 2, "chords": 5}')
    assert main(["proper", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error: document lacks a 'chords' list")


def test_non_integer_counts_are_classified(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text("abc 3\n")
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 1\n")
    assert main(["oeis-compare", "--counts", str(counts), "--bfile", str(bfile)]) == 1
    assert capsys.readouterr().err.startswith("error: counts file must hold")


def test_bfile_lines_that_are_not_integers_are_classified(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text("[1, 1]")
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 1\n1 x\n")
    assert main(["oeis-compare", "--counts", str(counts), "--bfile", str(bfile)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: invalid literal for int() with base 10: 'x'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["tree", "--depth", "-1"], "tree depth must be >= 0"),
        (["gengraph", "--level", "-1"], "tree has no level -1"),
        (["pullback", "--chords", "15/112:71/112", "--depth", "-2"], "pullback depth must be >= 0"),
    ],
)
def test_negative_depths_are_classified(rabbit_file, capsys, args, message):
    assert main([args[0], rabbit_file] + args[1:]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


def test_crossing_lifts_name_the_pullback_step(tmp_path, capsys):
    # the critical chord (1/4,3/4) is also a class edge; its lift (1/8,7/8)
    # crosses the class edge (0,1/4)
    p = tmp_path / "collapsing.json"
    p.write_text('{"degree": 2, "classes": [["0", "1/4", "3/4"]]}')
    assert main(["pullback", str(p), "--chords", "1/4:3/4", "--depth", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: pullback step 1: the lifts make crossing chords: "
        "chords (0,1/4) and (1/8,7/8) cross\n"
    )
    assert captured.out == ""


def test_lift_errors_print_the_branch_as_arcs(tmp_path, capsys):
    p = tmp_path / "lifts.json"
    p.write_text('{"degree": 2, "chords": [["0","2/5"],["3/5","4/5"]]}')
    assert main(["pullback", str(p), "--chords", "0:1/2", "--depth", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: every lift of (0,2/5) in branch [1/2,0] crosses the inputs\n"
    assert captured.out == ""


def test_chords_without_a_colon_are_classified(rabbit_file, capsys):
    assert main(["pullback", rabbit_file, "--chords", "1/5-7/10", "--depth", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: chord '1/5-7/10' must look like a:b\n"
    assert captured.out == ""


def test_chords_crossing_a_critical_chord_are_classified(rabbit_file, capsys):
    assert main(["pullback", rabbit_file, "--chords", "1/5:7/10", "--depth", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: chord (1/7,2/7) crosses critical chord (1/5,7/10)\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "children", "proper", "render"])
def test_documents_with_classes_and_chords_are_rejected(tmp_path, capsys, command):
    p = tmp_path / "both.json"
    p.write_text('{"degree": 2, "classes": [["1/7","2/7","4/7"]], "chords": []}')
    assert main([command, str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: document has both 'classes' and 'chords'")
    assert captured.out == ""


def test_repeated_critical_chord_is_classified(tmp_path, capsys):
    p = tmp_path / "cubic.json"
    p.write_text('{"degree": 3, "classes": []}')
    assert main(["pullback", str(p), "--chords", "0:1/3,0:1/3", "--depth", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: chord (0,1/3) does not split any region\n"
    assert captured.out == ""


def test_unwritable_output_names_the_given_path(rabbit_file, tmp_path, capsys):
    dot = tmp_path / "missing" / "x.dot"
    assert main(["tree", rabbit_file, "--depth", "2", "--dot", str(dot)]) == 1
    err = capsys.readouterr().err
    assert str(dot) in err and ".lamkit-" not in err


@pytest.mark.parametrize("command", [["tree", "--depth", "1"], ["gengraph", "--level", "2"]])
def test_tree_commands_need_a_root_that_is_its_own_image(level1_file, capsys, command):
    assert main([command[0], level1_file, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: root must be its own image (depth parameter 0, not 1)\n"
    assert captured.out == ""


def test_a_class_listed_twice_is_classified(tmp_path, capsys):
    p = tmp_path / "twice.json"
    p.write_text('{"degree": 2, "classes": [["1/3","2/3"],["2/3","1/3"]]}')
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: classes[0] and classes[1] list the same class {1/3,2/3}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "classes, message",
    [
        ('[["1/3","1/3"]]', "classes[0]: duplicate vertices in {1/3,1/3}"),
        ('[["1/7","2/7","4/7"],["2/3","4/3","1/3"]]', "classes[1]: duplicate vertices in {1/3,1/3,2/3}"),
    ],
    ids=["2-gon", "3-gon"],
)
def test_duplicate_vertices_print_as_fractions(tmp_path, capsys, classes, message):
    p = tmp_path / "bad.json"
    p.write_text(f'{{"degree": 2, "classes": {classes}}}')
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
