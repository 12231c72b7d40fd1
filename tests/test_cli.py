import json

import pytest

from lamkit.cli import main

RABBIT_DOC = '{"degree": 2, "classes": [["_001", "_010", "_100"]]}\n'
LEVEL1_DOC = (
    '{"degree": 2, "classes": [["_001", "_010", "_100"],'
    ' ["1/14", "9/14", "11/14"]]}\n'
)


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


def test_children_of_invalid_lamination_is_classified(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"degree":2,"classes":[["1/5","2/5"]]}')
    assert main(["children", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "image of (1/5,2/5) is not a leaf" in err
    assert "AxiomResult(" not in err and "internal error" not in err


def test_render_stdout(rabbit_file, capsys):
    assert main(["render", rabbit_file, "--geodesics", "arc"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_oeis_compare_cli(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text("[1, 1, 1, 3]")
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 1\n1 1\n2 1\n3 3\n4 5\n")
    assert main(["oeis-compare", "--counts", str(counts), "--bfile", str(bfile)]) == 0
    assert "consistent with conjecture up to depth 3" in capsys.readouterr().out
