import itertools
import json
import os
import pathlib
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from qcolour import groups as groups_mod
from qcolour.cli import main
from qcolour.corpus import CORPUS
from qcolour.graphs import Multigraph, RotationSystem
from qcolour.graphio import (
    GraphDocument,
    GraphParseError,
    parse_graph,
    serialize_graph,
)
from qcolour.groups import cyclic_group, group_from_name
from qcolour.verify import SUITES, VerifyContext, run_battery

from conftest import multigraphs


@pytest.fixture()
def corpus_files(tmp_path):
    paths = {}
    for name, doc in CORPUS.items():
        p = tmp_path / f"{name}.g"
        p.write_text(serialize_graph(doc))
        paths[name] = (str(p), doc)
    return paths


def test_round_trip_identity(corpus_files):
    for name, (path, doc) in corpus_files.items():
        text = pathlib.Path(path).read_text()
        parsed = parse_graph(text)
        assert parsed == doc, name
        assert parse_graph(serialize_graph(parsed)) == parsed, name


def test_committed_graph_files_match_corpus():
    # graphs/*.g are written by scripts/regen_graph_files.py
    graphs = pathlib.Path(__file__).resolve().parent.parent / "graphs"
    assert sorted(p.stem for p in graphs.glob("*.g")) == sorted(CORPUS)
    for name, doc in CORPUS.items():
        assert (graphs / f"{name}.g").read_text() == serialize_graph(doc), name


def test_parse_error_reports_line_number():
    bad = "vertices 2\nedge 0 1\nedge 0 5\n"
    with pytest.raises(GraphParseError):
        parse_graph(bad)
    with pytest.raises(GraphParseError) as exc:
        parse_graph("vertices 2\nedge 0 x\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(GraphParseError) as exc:
        parse_graph("vertices 1\nrotation 0: e0.0\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("vertices 2\nedge 0 1\norient 0 0\norient 0 1\n", "line 4: duplicate orient"),
        (
            "vertices 2\nedge 0 1\nrotation 0: e0.0\nrotation 1: e0.1\nrotation 0: e0.0\n",
            "line 5: duplicate rotation",
        ),
    ],
    ids=["orient", "rotation"],
)
def test_repeated_records_are_parse_errors(tmp_path, capsys, text, message):
    # the later line must not silently win
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert message in str(exc.value)
    p = tmp_path / "repeated.g"
    p.write_text(text)
    assert main(["tutte", "--graph", str(p)]) == 2
    assert message in capsys.readouterr().err


# every malformed record, after a comment and a blank line that count as
# lines; line 0 is the file as a whole
_HEAD = "# header\n\n"


@pytest.mark.parametrize(
    "body,lineno,message",
    [
        ("vertices 1\nvertices 1\n", 4, "duplicate vertices record"),
        ("vertices\n", 3, "want: vertices N"),
        ("vertices -1\n", 3, "want: vertices N"),
        ("vertices 2\nedge 0\n", 4, "want: edge U V"),
        ("vertices 2\nedge 0 x\n", 4, "edge endpoints must be integers"),
        ("vertices 2\nedge 0 1\norient 0\n", 5, "want: orient E HEAD_END"),
        ("vertices 2\nedge 0 1\norient 0 y\n", 5, "orient fields must be integers"),
        ("vertices 2\nedge 0 1\nrotation 0 e0.0\n", 5, "want: rotation V: tokens"),
        ("vertices 2\nedge 0 1\nrotation v: e0.0\n", 5, "rotation vertex must be an integer"),
        (
            "vertices 2\nedge 0 1\nrotation 0: x0.0\n",
            5,
            "bad half-edge token 'x0.0' (want eINDEX.END)",
        ),
        (
            "vertices 2\nedge 0 1\nrotation 0: e0\n",
            5,
            "bad half-edge token 'e0' (want eINDEX.END)",
        ),
        ("vertices 2\nedge 0 1\nrotation 0: ea.0\n", 5, "bad half-edge token 'ea.0'"),
        ("vertices 2\nedge 0 1\nrotation 0: e0.2\n", 5, "half-edge end must be 0 or 1, got 2"),
        ("vertices 1\nassert planar\n", 4, "unknown assertion ['planar']"),
        ("vertices 1\ncolour 0 1\n", 4, "unknown record 'colour'"),
        ("edge 0 1\n", 0, "missing vertices record"),
        ("vertices 2\nedge 0 2\n", 0, "edge (0,2) out of range"),
        ("vertices 2\nedge 0 1\norient 1 0\n", 5, "orient: edge 1 out of range"),
        ("vertices 2\nedge 0 1\norient 0 2\n", 5, "orient: head end must be 0 or 1"),
        ("vertices 2\nedge 0 1\nrotation 2: e0.0\n", 5, "rotation: vertex 2 out of range"),
        (
            "vertices 2\nedge 0 1\nrotation 0: e0.0 e0.0\n",
            5,
            "rotation at vertex 0 must list H(v) exactly once",
        ),
    ],
)
def test_malformed_records_name_their_line(body, lineno, message):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(_HEAD + body)
    assert exc.value.lineno == lineno
    assert str(exc.value) == f"line {lineno}: {message}"


def test_round_trip_skips_comments_and_blank_lines_and_keeps_orientation():
    text = (
        "# a digon, its second edge drawn backwards\n"
        "\n"
        "vertices 2  # two\n"
        "edge 0 1\n"
        "   \n"
        "edge 1 0\n"
        "orient 0 0\n"
        "orient 1 1  # the default, stated\n"
        "rotation 0: e1.1 e0.0\n"
        "assert pfaffian-compatible\n"
    )
    doc = parse_graph(text)
    assert doc.graph.edges == ((0, 1), (1, 0))
    assert doc.orientation.head_end == (0, 1)
    assert doc.rotation.orders == (((1, 1), (0, 0)), ((0, 1), (1, 0)))
    assert doc.pfaffian_compatible
    written = serialize_graph(doc)
    assert written == (
        "vertices 2\nedge 0 1\nedge 1 0\norient 0 0\norient 1 1\n"
        "rotation 0: e1.1 e0.0\nrotation 1: e0.1 e1.0\n"
        "assert pfaffian-compatible\n"
    )
    assert parse_graph(written) == doc


def test_parse_orientation_and_assertion():
    doc = parse_graph(
        "vertices 2\nedge 0 1\nedge 0 1\norient 1 0\nassert pfaffian-compatible\n"
    )
    assert doc.orientation.head_end == (1, 0)
    assert doc.pfaffian_compatible


def test_cli_flow(corpus_files, capsys):
    path, _ = corpus_files["k4"]
    assert main(["flow", "--graph", path, "--q", "4"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_cli_tutte(corpus_files, capsys):
    path, _ = corpus_files["triangle"]
    assert main(["tutte", "--graph", path]) == 0
    assert capsys.readouterr().out.strip() == "x^2 + x + y"


def test_cli_chromatic(corpus_files, capsys):
    path, _ = corpus_files["triangle"]
    assert main(["chromatic", "--graph", path, "--q", "3"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_cli_counts_at_nonpositive_q(corpus_files, capsys):
    path, _ = corpus_files["triangle"]
    assert main(["chromatic", "--graph", path, "--q", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "-6"
    path, _ = corpus_files["k4"]
    assert main(["flow", "--graph", path, "--q", "0"]) == 0
    assert capsys.readouterr().out.strip() == "-6"


def test_cli_sine_model(corpus_files, capsys):
    path, _ = corpus_files["k4"]
    assert main(["sine-model", "--graph", path, "--q", "4", "--k", "3"]) == 0
    out = capsys.readouterr()
    assert float(out.out.strip()) == pytest.approx(6.0, abs=1e-6)
    assert "magnitude 6" in out.err


def test_cli_kplus1(corpus_files, capsys):
    path, _ = corpus_files["c4"]
    assert main(["kplus1", "--graph", path, "--k", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(abs(float(out)) - 2.0) < 1e-9


@pytest.mark.parametrize("k", ["-1", "2"])
def test_cli_kplus1_refuses_a_k_other_than_the_degree(corpus_files, capsys, k):
    # K4 is 3-regular: -1 would divide by zero, and 2 gives a non-count
    path, _ = corpus_files["k4"]
    assert main(["kplus1", "--graph", path, "--k", k]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"graph is 3-regular, expected {k}" in out.err
    assert "Traceback" not in out.err


def test_cli_hwe_cwe(corpus_files, capsys):
    path, _ = corpus_files["theta"]
    assert main(["hwe", "--graph", path, "--q", "3", "--s", "2"]) == 0
    first = capsys.readouterr().out.strip()
    # nine flows: the zero flow (s^3), six with one zero entry, two nowhere-zero
    assert float(first) == 2**3 + 6 * 2 + 2
    assert main(["cwe", "--graph", path, "--q", "3", "--weights", "1,1,1"]) == 0
    assert complex(capsys.readouterr().out.strip()) == 9  # |ker d| = 3^2


def test_cli_hwe_cwe_over_tensions(corpus_files, capsys):
    from qcolour import oracles

    path, doc = corpus_files["theta"]
    tensions = oracles.enumerate_tensions(doc.graph, cyclic_group(3))
    args = ["--graph", path, "--q", "3", "--set", "tensions"]
    assert main(["hwe", *args, "--s", "2"]) == 0
    # three tensions, each edge reading the one vertex difference: the
    # zero tension (s^3) and two nowhere-zero ones
    hwe = oracles.hamming_weight_enum(tensions, 2, doc.graph.num_edges)
    assert float(capsys.readouterr().out) == hwe == 2**3 + 2
    assert main(["cwe", *args, "--weights", "1,2,3"]) == 0
    cwe = oracles.complete_weight_enum(tensions, [1, 2, 3])
    assert complex(capsys.readouterr().out) == cwe == 1 + 2**3 + 3**3


@pytest.mark.parametrize(
    "orient, want", [("orient 1 0\n", "3.045-4.618j"), ("", "2.556-7.016j")]
)
def test_cli_cwe_and_the_battery_read_the_documents_orientation(
    tmp_path, capsys, orient, want
):
    import qcolour.verify as verify_mod
    from qcolour import oracles
    from qcolour.cli import _format_number

    path = tmp_path / "triangle.g"
    path.write_text("vertices 3\nedge 0 1\nedge 1 2\nedge 2 0\n" + orient)
    doc = parse_graph(path.read_text())
    G = cyclic_group(3)
    weights = "0.3,1-0.2j,1.7-0.8j"
    assert main(["cwe", "--graph", str(path), "--q", "3", "--weights", weights]) == 0
    assert capsys.readouterr().out == want + "\n"
    # the histogram of the document's own orientation, None for the default
    hist = oracles.flow_compositions(doc.graph, G, doc.orientation)
    w = [complex(x) for x in weights.split(",")]
    assert _format_number(hist.complete_weight_enum(w)) == want
    ctx = verify_mod.VerifyContext(doc, G, 1e-7, 10**8, 0)
    assert np.array_equal(ctx.flow_compositions.comps, hist.comps)
    assert np.array_equal(ctx.flow_compositions.mults, hist.mults)
    assert main(["verify", "--graph", str(path), "--q", "3"]) == 0
    assert "69 checks: 69 passed, 0 failed, 0 skipped" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["2", "3", "4", "2x2", "f4"])
@pytest.mark.parametrize("which", ["flows", "tensions"])
def test_cli_hwe_cwe_equal_the_listed_set(tmp_path, capsys, spec, which):
    from qcolour import oracles
    from qcolour.cli import _format_number

    # a loop, parallel edges in both directions and two edges reversed
    doc = parse_graph(
        "vertices 4\nedge 0 1\nedge 1 0\nedge 1 2\nedge 2 2\nedge 2 3\nedge 3 0\n"
        "orient 0 0\norient 4 0\n"
    )
    path = tmp_path / "g.g"
    path.write_text(serialize_graph(doc))
    G = group_from_name(spec)
    listing = oracles.enumerate_flows if which == "flows" else oracles.enumerate_tensions
    rows = listing(doc.graph, G, doc.orientation)
    w = np.random.default_rng(G.q).standard_normal(2 * G.q).view(complex)
    args = ["--graph", str(path), "--group", spec, "--set", which]
    assert main(["hwe", *args, "--s", "0.7-1.3j"]) == 0
    hwe = oracles.hamming_weight_enum(rows, 0.7 - 1.3j, doc.graph.num_edges)
    assert capsys.readouterr().out == _format_number(hwe) + "\n"
    assert main(["cwe", *args, "--weights", ",".join(map(str, w))]) == 0
    cwe = oracles.complete_weight_enum(rows, w)
    assert capsys.readouterr().out == _format_number(cwe) + "\n"


def test_cli_vertex_and_edge_model(corpus_files, capsys):
    path, _ = corpus_files["triangle"]
    w = "0,1,1,1,0,1,1,1,0"  # proper-colouring interaction over Z3
    assert main(["vertex-model", "--graph", path, "--q", "3", "--weights", w]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == 6.0
    path4, _ = corpus_files["k4"]
    assert (
        main(
            [
                "edge-model",
                "--graph",
                path4,
                "--q",
                "2",
                "--vertex-family",
                "matching",
            ]
        )
        == 0
    )
    assert float(capsys.readouterr().out.splitlines()[0]) == 3.0
    # each of K4's three perfect matchings, weighted 2 per matched edge
    args = ["edge-model", "--graph", path4, "--q", "2", "--vertex-family", "matching"]
    assert main([*args, "--weights", "1,2"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == 3 * 2**2


def test_cli_xq(corpus_files, capsys):
    path, _ = corpus_files["single_edge"]
    assert main(["xq", "--graph", path, "--group", "2", "--s", "2,3", "--t", "5,1"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(5 * (4 + 9) + 2 * 6)
    # a non-real value prints its imaginary part too
    assert main(["xq", "--graph", path, "--group", "2", "--s", "2,3", "--t", "5,1j"]) == 0
    assert capsys.readouterr().out.strip() == "65+12j"


def test_cli_cap_exceeded(corpus_files, capsys):
    path, _ = corpus_files["petersen"]
    code = main(["sine-model", "--graph", path, "--q", "4", "--k", "3", "--max-terms", "1e5"])
    assert code == 3
    err = capsys.readouterr().err
    assert "125268" in err  # the offending planned contraction cost


@pytest.mark.parametrize("command", ["flow", "tutte"])
def test_cli_tutte_pass_obeys_max_terms(corpus_files, capsys, command):
    # both read the subset histogram of all 2^15 edge subsets
    path, _ = corpus_files["petersen"]
    args = [command, "--graph", path, "--max-terms", "1000"]
    assert main(args + (["--q", "4"] if command == "flow" else [])) == 3
    assert "32768" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, terms",
    [
        (["hwe", "--q", "20000", "--s", "2"], 400000000),
        (["verify", "--q", "20000"], 400000000),
        (["xq", "--group", "100x200", "--s", "1", "--t", "1"], 400000000),
        (["edge-model", "--q", "200", "--max-terms", "1e4"], 40000),
    ],
)
def test_cli_prices_a_groups_tables_before_it_builds_them(
    corpus_files, capsys, monkeypatch, args, terms
):
    def refuse(*factors):
        raise AssertionError(f"cyclic_group{factors} was built")

    monkeypatch.setattr(groups_mod, "cyclic_group", refuse)
    path, _ = corpus_files["triangle"]
    assert main([args[0], "--graph", path, *args[1:]]) == 3
    assert f"needs {terms} terms" in capsys.readouterr().err


# the arguments each subcommand other than verify needs to run
_RUN_ARGS = {
    "tutte": [],
    "flow": ["--q", "3"],
    "chromatic": ["--q", "3"],
    "hwe": ["--q", "3", "--s", "2"],
    "cwe": ["--q", "3", "--weights", "1,1,1"],
    "vertex-model": ["--q", "2", "--weights", "0,1,1,0"],
    "edge-model": ["--q", "2"],
    "sine-model": ["--q", "4", "--k", "3"],
    "kplus1": ["--k", "3"],
    "xq": ["--group", "2", "--s", "2,3", "--t", "5,1"],
}


def test_run_args_cover_every_subcommand_but_verify(corpus_files):
    from qcolour.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(_RUN_ARGS) | {"verify"}
    path, _ = corpus_files["k4"]
    for command, args in _RUN_ARGS.items():
        assert main([command, "--graph", path] + args) == 0, command


@pytest.mark.parametrize("flag", ["--tol", "--seed"])
@pytest.mark.parametrize("command", sorted(_RUN_ARGS))
def test_only_verify_takes_tol_and_seed(corpus_files, capsys, command, flag):
    path, _ = corpus_files["k4"]
    args = [command, "--graph", path] + _RUN_ARGS[command]
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_usage_errors_exit_two(corpus_files, capsys):
    # exit 1 means a failed check, so a usage error never exits 1
    path, _ = corpus_files["k4"]
    assert main(["verify", "--graph", path]) == 2
    assert "need --group or --q" in capsys.readouterr().err
    assert main(["cwe", "--graph", path, "--q", "3", "--weights", "1,2"]) == 2
    assert "--weights needs 3 comma-separated values, got 2" in capsys.readouterr().err
    # xq has no --q, so only --group is named
    with pytest.raises(SystemExit) as exc:
        main(["xq", "--graph", path, "--s", "2,3", "--t", "5,1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--group" in err and "--q" not in err
    assert main(["xq", "--graph", path, "--group", "", "--s", "2,3", "--t", "5,1"]) == 2
    assert "cannot parse group spec ''" in capsys.readouterr().err
    for cap in ("nan", "inf", "lots", "-1", "2.5"):
        with pytest.raises(SystemExit) as exc:
            main(["tutte", "--graph", path, "--max-terms", cap])
        assert exc.value.code == 2
        assert f"invalid count value: '{cap}'" in capsys.readouterr().err
    assert main(["tutte", "--graph", path, "--max-terms", "1e8"]) == 0
    for tol in ("nan", "inf", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--graph", path, "--q", "2", "--tol", tol])
        assert exc.value.code == 2
        assert f"invalid tolerance value: '{tol}'" in capsys.readouterr().err
    assert main(["verify", "--graph", path, "--q", "2", "--tol", "1e-7"]) == 0
    # a negative seed is refused before any check runs, not once per check
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--graph", path, "--q", "3", "--seed", "-1"])
    assert exc.value.code == 2
    assert "invalid count value: '-1'" in capsys.readouterr().err


def test_a_negative_seed_raises_before_any_check_runs(monkeypatch):
    ran = []

    def probe(ctx):
        ran.append(ctx.seed)
        return []

    monkeypatch.setitem(SUITES, "signed", [probe])
    with pytest.raises(ValueError, match="seed -1 is negative"):
        run_battery(CORPUS["k4"], cyclic_group(3), ("signed",), seed=-1)
    assert ran == []
    run_battery(CORPUS["k4"], cyclic_group(3), ("signed",), seed=0)
    assert ran == [0]


def test_cli_parse_error_exit(tmp_path, capsys):
    p = tmp_path / "bad.g"
    p.write_text("vertices 2\nedge 0 two\n")
    assert main(["flow", "--graph", str(p), "--q", "3"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        ("vertices ²\n".encode(), "line 1: want: vertices N"),
        (b"\xff\xfe", "line 1: not UTF-8 text"),
        (b"vertices 2\nedge 0 1\n\xff\n", "line 3: not UTF-8 text"),
    ],
    ids=("superscript-count", "utf16-mark", "bad-byte-on-line-3"),
)
def test_cli_unreadable_graph_text_exits_two(tmp_path, capsys, data, message):
    p = tmp_path / "bad.g"
    p.write_bytes(data)
    assert main(["tutte", "--graph", str(p)]) == 2
    assert message in capsys.readouterr().err


def test_cli_missing_graph_file_exit(tmp_path, capsys):
    missing = tmp_path / "missing.g"
    assert main(["tutte", "--graph", str(missing)]) == 2
    assert "No such file" in capsys.readouterr().err


def test_cli_oversized_signed_tables_skip(tmp_path, capsys):
    # two vertices joined by 13 edges: each signed sum on it would build a
    # table of 13^13 or 14^13 entries, so it must refuse at its plan's cost
    path = tmp_path / "bundle.g"
    path.write_text("vertices 2\n" + "edge 0 1\n" * 13)
    assert main(["verify", "--graph", str(path), "--q", "2"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    skips = {rec["name"]: rec["lhs"] for rec in records if rec["pass"] is None}
    proper, kplus1 = sum(13**i for i in range(1, 14)), sum(14**i for i in range(1, 14))
    assert skips == {
        "skip.zero_sum_chain": str(proper),
        "skip.sine_and_kplus1": str(proper),
        "skip.rotation_covariance": str(kplus1),
    }
    assert all(rec["pass"] is True for rec in records if rec["name"] not in skips)
    assert main(["kplus1", "--graph", str(path), "--k", "13"]) == 3
    assert str(kplus1) in capsys.readouterr().err


# one vertex with five loops: each signed sum plans over its 5 edge labels,
# 10^5 terms at 10 colours, and reads its table on those labels alone, not
# on the 10^10 entries of an axis per half-edge; run under a 4 GB
# address-space limit, so that building the whole table fails fast instead
# of taking the machine's memory
FIVE_LOOPS = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4_000_000_000, 4_000_000_000))
from qcolour.cli import main
sys.exit(main(["verify", "--graph", sys.argv[1], "--q", "2", "--suite", "signed"]))
"""


def test_cli_loop_tables_run_at_their_plan(tmp_path):
    path = tmp_path / "loops.g"
    path.write_text("vertices 1\n" + "edge 0 0\n" * 5)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", FIVE_LOOPS, str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert (out.returncode, "Traceback" in out.stderr) == (0, False), out.stderr
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(records) == 13 and all(rec["pass"] is True for rec in records)
    assert "13 passed, 0 failed, 0 skipped" in out.stderr


@st.composite
def battery_documents(draw):
    """A random multigraph with a drawn rotation and a drawn Pfaffian flag."""
    g = draw(multigraphs())
    orders = tuple(
        tuple(draw(st.permutations(g.halfedges_at(v)))) for v in range(g.num_vertices)
    )
    return GraphDocument(g, None, RotationSystem(orders), draw(st.booleans()))


# a theta graph whose asserted flag is false of its drawn rotation
THETA_UNFLAGGED = GraphDocument(
    Multigraph(2, ((1, 0), (1, 0), (0, 1))),
    None,
    RotationSystem((((0, 1), (1, 1), (2, 0)), ((0, 0), (1, 0), (2, 1)))),
    True,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(battery_documents(), st.integers(0, 3))
@example(THETA_UNFLAGGED, 0)
# one vertex with four loops, whose tables read only the loops' diagonal
@example(GraphDocument(Multigraph(1, ((0, 0),) * 4)), 0)
def test_battery_passes_or_skips_on_random_multigraphs(address_space_cap, doc, seed):
    # the Pfaffian flag is drawn, not proved, so the one check that trusts
    # it may find the signed count off by its sign, and only by its sign
    for spec in ("2", "3", "4", "2x2", "f4", "5"):
        for rec in run_battery(doc, group_from_name(spec), seed=seed):
            if rec.name == "sign.even-minus-odd-proper4" and rec.passed is False:
                assert doc.pfaffian_compatible and int(rec.lhs) == -int(rec.rhs), rec
            else:
                assert rec.passed is not False, (spec, rec)


def test_cli_verify_exit_zero(corpus_files, capsys):
    path, _ = corpus_files["theta"]
    code = main(["verify", "--graph", path, "--q", "3", "--suite", "all"])
    out = capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    assert records
    for rec in records:
        assert set(rec) == {"name", "anchor", "lhs", "rhs", "residual", "pass"}
        assert rec["pass"] is True


def test_cli_verify_single_suite(corpus_files, capsys):
    path, _ = corpus_files["digon"]
    code = main(["verify", "--graph", path, "--q", "2", "--suite", "fourier"])
    out = capsys.readouterr()
    assert code == 0
    names = [json.loads(l)["name"] for l in out.out.splitlines() if l.strip()]
    assert all(n.startswith(("fourier.", "models.")) for n in names)


def test_verify_suite_counts_guard():
    # every suite registry contributes checks; dropping one would shrink the report
    doc = CORPUS["theta"]
    G = cyclic_group(3)
    total = len(run_battery(doc, G, ("fourier", "duality", "signed"), seed=0))
    parts = [len(run_battery(doc, G, (s,), seed=0)) for s in ("fourier", "duality", "signed")]
    assert all(p > 0 for p in parts)
    assert total == sum(parts)
    assert len(SUITES) == 3 and all(SUITES.values())


SUITE_CHECKS = {
    "fourier": [
        "unitarity",
        "involution",
        "convolution",
        "subgroup_transform",
        "character_bijection",
        "orthogonal_invariance",
    ],
    "duality": [
        "hwe_tutte",
        "monochrome",
        "macwilliams",
        "general_duality",
        "flow_cwe_routes",
        "tutte_edge_model",
        "cubic_flow_model",
        "gf4_identity",
        "spectral",
        "xq",
    ],
    "signed": [
        "character_det",
        "parity_transforms",
        "zero_sum_chain",
        "sine_and_kplus1",
        "even_odd_proper4",
        "rotation_covariance",
    ],
}


def test_suites_hold_every_declared_check_in_order():
    import qcolour.verify as verify_mod

    names = {
        suite: [fn.__name__.removeprefix("_check_") for fn in fns]
        for suite, fns in SUITES.items()
    }
    assert names == SUITE_CHECKS
    # each entry is the module's own check, as its ``@_check`` line made it
    for fns in SUITES.values():
        for fn in fns:
            assert getattr(verify_mod, fn.__name__) is fn


def test_a_declared_check_runs_in_its_suite(monkeypatch):
    import qcolour.verify as verify_mod

    monkeypatch.setitem(SUITES, "signed", list(SUITES["signed"]))

    @verify_mod._check("signed", applies=lambda ctx: ctx.group.q == 3)
    def _check_probe(ctx):
        return [verify_mod._record("probe", "probe", 1, 1, 0)]

    assert SUITES["signed"][-1] is _check_probe
    names = [rec.name for rec in run_battery(CORPUS["theta"], cyclic_group(3), ("signed",))]
    assert names[-1] == "probe"
    names = [rec.name for rec in run_battery(CORPUS["theta"], cyclic_group(2), ("signed",))]
    assert "probe" not in names
    with pytest.raises(KeyError):
        verify_mod._check("nosuch")


def test_verify_detects_failure(monkeypatch, corpus_files, capsys):
    # sabotage one oracle so the battery must report a failure and exit
    # nonzero: the zero tension counted twice.  No check that shares its
    # records between calls reads the tensions, so none keeps a failure.
    import qcolour.verify as verify_mod

    path, _ = corpus_files["triangle"]
    real = verify_mod.oracles.tension_compositions
    histogram = verify_mod.oracles.CompositionHistogram

    def sabotaged(*args, **kwargs):
        hist = real(*args, **kwargs)
        q = hist.comps.shape[1]
        zero = histogram.of_rows(np.zeros((1, hist.length), dtype=int), q)
        return histogram.merged([hist, zero])

    monkeypatch.setattr(verify_mod.oracles, "tension_compositions", sabotaged)
    code = main(["verify", "--graph", path, "--q", "2", "--suite", "duality"])
    out = capsys.readouterr()
    assert code == 1
    assert any(not json.loads(l)["pass"] for l in out.out.splitlines() if l.strip())


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_value_fails_its_record(value):
    # a sum that overflows writes a failed record instead of raising
    from qcolour.verify import _record

    record = _record("x", "a", value, 1.0, 1e-7)
    assert record.passed is False
    assert record.lhs == str(value)
    # the line is strict JSON: the non-finite residual is written null
    parsed = json.loads(record.to_json(), parse_constant=_refuse_constant)
    assert parsed["residual"] is None and parsed["pass"] is False


def test_exact_record_passes_only_on_equality():
    # 2^60 + 1 and 2^60 are the same float, so only an exact comparison
    # tells them apart
    from fractions import Fraction

    from qcolour.verify import _record

    big = 2**60
    for lhs, rhs in [(big + 1, big), (np.int64(big + 1), big), (Fraction(big + 1), big)]:
        record = _record("x", "a", lhs, rhs, 0)
        assert record.passed is False
    assert _record("x", "a", np.int64(big), Fraction(big), 0).passed is True
    # a nonzero tolerance compares the residual, as for float sides
    assert _record("x", "a", big + 1, big, 1e-12).passed is True


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_petersen_runs_every_check():
    # no budget beyond the callees' caps: every model sum here plans well
    # under the default cap, so all 74 checks over Z3 run
    doc = CORPUS["petersen"]
    records = run_battery(doc, cyclic_group(3), seed=0)
    assert len(records) == 74
    assert all(rec.passed is True for rec in records)


def test_battery_lists_flows_and_tensions_once(monkeypatch):
    import qcolour.verify as verify_mod

    # each histogram is built once per call, from one listing of its set,
    # and no check walks the vertex colourings
    calls = {"flow_compositions": 0, "tension_compositions": 0, "monochrome_histogram": 0}
    for fname in calls:
        real = getattr(verify_mod.oracles, fname)

        def counted(*args, _real=real, _fname=fname, **kwargs):
            calls[_fname] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify_mod.oracles, fname, counted)
    doc = CORPUS["prism"]
    records = run_battery(doc, cyclic_group(3), seed=0)
    assert calls == {
        "flow_compositions": 1,
        "tension_compositions": 1,
        "monochrome_histogram": 0,
    }
    assert all(rec.passed is True for rec in records)
    # over the cap, every check that reads them still skips on its own
    records = run_battery(doc, cyclic_group(4), max_terms=100, seed=0)
    skipped = {rec.name for rec in records if rec.passed is None}
    assert {
        "skip.hwe_tutte",
        "skip.monochrome",
        "skip.macwilliams",
        "skip.flow_cwe_routes",
    } <= skipped
    ctx = verify_mod.VerifyContext(doc, cyclic_group(3), 1e-7, 10**8, 0)
    # the histograms are shared by the checks, so none can alter them
    for hist in (ctx.flow_compositions, ctx.tension_compositions):
        with pytest.raises(ValueError):
            hist.comps[0, 0] = 1
        with pytest.raises(ValueError):
            hist.mults[0] = 1


def test_cwe_checks_pass_their_draws_to_each_histogram_as_one_stack(monkeypatch):
    import qcolour.verify as verify_mod

    # each check calls the exact oracle once on the flows and once on the
    # tensions with all five draws, where one call per draw would make 10
    Histogram = verify_mod.oracles.CompositionHistogram
    real = Histogram.complete_weight_enum
    calls = []

    def counted(hist, weights):
        calls.append(np.shape(weights))
        return real(hist, weights)

    monkeypatch.setattr(Histogram, "complete_weight_enum", counted)
    G = cyclic_group(3)
    ctx = VerifyContext(CORPUS["prism"], G, 1e-7, 10**8, 0)
    for check in (verify_mod._check_macwilliams, verify_mod._check_flow_cwe_routes):
        calls.clear()
        records = check(ctx)
        assert calls == [(5, G.q), (5, G.q)]
        assert records and all(rec.passed is True for rec in records)


def test_flow_cwe_check_convolves_its_draws_as_one_stack(monkeypatch):
    import qcolour.verify as verify_mod

    real = verify_mod.convolve
    calls = []

    def counted(f, g):
        calls.append((f.values.shape, g.values.shape))
        return real(f, g)

    monkeypatch.setattr(verify_mod, "convolve", counted)
    G = cyclic_group(4)
    ctx = VerifyContext(CORPUS["prism"], G, 1e-7, 10**8, 0)
    records = verify_mod._check_flow_cwe_routes(ctx)
    assert calls == [((5, G.q), (5, G.q))]
    assert records and all(rec.passed is True for rec in records)


def test_checks_refuse_every_oracle_quantity_before_building_any(monkeypatch):
    import qcolour.verify as verify_mod

    calls = []
    real = verify_mod.oracles.flow_compositions

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_mod.oracles, "flow_compositions", counted)
    doc = CORPUS["prism"]

    def skips(max_terms):
        records = run_battery(doc, cyclic_group(3), ("duality",), max_terms=max_terms)
        return {rec.name: rec.lhs for rec in records if rec.passed is None}

    # a histogram is priced at its rows times the q colours it counts:
    # 3^4 flows fill 3^5 counts and 3^5 tensions 3^6.  Past several caps,
    # the record names the first quantity declared
    over = skips(100)
    assert calls == []
    assert over["skip.hwe_tutte"] == "243"
    assert over["skip.monochrome"] == "729"
    assert over["skip.macwilliams"] == over["skip.flow_cwe_routes"] == "243"
    # the flows' 3^5 counts fit under 300; the tensions' 3^6 and the Tutte
    # pass's 2^9 subsets do not, so every check that reads the flows skips
    # unbuilt
    over = skips(300)
    assert over["skip.hwe_tutte"] == "512"
    assert over["skip.monochrome"] == over["skip.macwilliams"] == "729"
    assert over["skip.flow_cwe_routes"] == "729"
    assert calls == []


def test_checks_of_q_cubed_work_skip_at_the_term_cap():
    # q^2 = 1,600 fits under the cap and q^3 = 64,000 does not: the five
    # checks that change basis, draw or split q x q matrices skip, and the
    # group's own q^2 checks still run
    records = run_battery(CORPUS["single_edge"], cyclic_group(40), max_terms=10**4)
    skipped = {rec.name: (rec.lhs, rec.rhs) for rec in records if rec.passed is None}
    basis = (
        "unitarity",
        "involution",
        "subgroup_transform",
        "orthogonal_invariance",
        "spectral",
    )
    assert skipped == {f"skip.{name}": ("64000", "10000") for name in basis}
    names = {rec.name for rec in records if rec.passed}
    assert "fourier.product-to-convolution" in names
    assert "fourier.generating-character-bijection" in names
    assert all(rec.passed is not False for rec in records)


def test_xq_principal_specialization_stays_in_float_range():
    import qcolour.verify as verify_mod

    # the generic point's powers s0^a, a < q, stay finite at large q; the
    # edge model's plan reads (a_u, a_v, y_e) at each edge, 3 * 300^3 terms
    ctx = verify_mod.VerifyContext(
        CORPUS["triangle"], cyclic_group(300), 1e-7, 2 * 10**8, 0
    )
    records = verify_mod._check_xq(ctx)
    assert [rec.name for rec in records][2:] == [
        "xq.principal-specialization.s0.5",
        "xq.principal-specialization.s1",
    ]
    assert all(rec.passed for rec in records)


def test_fmt_drops_imaginary_parts_below_relative_round_off():
    from qcolour.verify import _fmt

    assert _fmt(complex(6115849220, 2.9e-06)) == "6115849220"
    assert _fmt(1 + 1e-06j) == "1+1e-06j"
    assert _fmt(complex(2.5, 1e-13)) == "2.5"


def test_orthogonal_invariance_draws_each_table_within_the_cap(monkeypatch):
    import qcolour.verify as verify_mod
    from qcolour.enumeration import TermCapExceeded
    from qcolour.graphs import Multigraph
    from qcolour.models import VertexWeights

    seen, streams = [], []
    real_check, real_rng = verify_mod.orthogonal_invariance_check, verify_mod._rng

    def check(g, weights, Us, **kwargs):
        seen.append(weights)
        return real_check(g, weights, Us, **kwargs)

    def rng(seed, salt):
        streams.append(real_rng(seed, salt))
        return streams[-1]

    monkeypatch.setattr(verify_mod, "orthogonal_invariance_check", check)
    monkeypatch.setattr(verify_mod, "_rng", rng)
    # degrees 3, 2, 2, 3: the degree-3 table is drawn first
    g = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (3, 3)))
    G = group_from_name("2x2")
    ctx = verify_mod.VerifyContext(GraphDocument(g), G, 1e-7, 10**8, 5)
    records = verify_mod._check_orthogonal_invariance(ctx)
    assert records and all(rec.passed for rec in records)
    # the stream of one complex draw per entry, real part first
    stream = real_rng(5, 4)
    want = VertexWeights.from_tuple_function(
        G, lambda t: complex(stream.standard_normal(), stream.standard_normal())
    )
    for d in (3, 2):
        table = seen[0].table(d)
        assert table.dtype == np.complex128
        assert table.tobytes() == want.table(d).tobytes()
    # over the pairing's cap, the stream is made but nothing is drawn
    streams.clear()
    ctx = verify_mod.VerifyContext(GraphDocument(g), G, 1e-7, 100, 5)
    with pytest.raises(TermCapExceeded) as err:
        verify_mod._check_orthogonal_invariance(ctx)
    assert err.value.estimate > 100 and len(seen) == 2
    fresh = real_rng(5, 4).bit_generator.state
    assert [s.bit_generator.state for s in streams] == [fresh]


def test_shared_records_are_evicted_past_the_cache_size(monkeypatch):
    import qcolour.verify as verify_mod

    monkeypatch.setattr(verify_mod, "_SHARED_CACHE_SIZE", 2)
    monkeypatch.setitem(SUITES, "signed", [])
    runs = []

    @verify_mod._check("signed", reads=("tol",))
    def _check_probe(ctx):
        runs.append(ctx.tol)
        return [ctx.tol]

    for tol in (1, 2, 1, 3, 2, 1, 2):
        ctx = verify_mod.VerifyContext(CORPUS["k4"], cyclic_group(3), tol, 10**8, 0)
        assert _check_probe(ctx) == [tol]
    # 1 is read again before 3 comes in, so 2 is the oldest and goes; the
    # last read of 2 finds it
    assert runs == [1, 2, 3, 2, 1]
    assert _check_probe.__name__ == "_check_probe"


def test_monochrome_records_follow_the_tutte_cap():
    import qcolour.verify as verify_mod
    from qcolour.enumeration import TermCapExceeded
    from qcolour.graphs import Multigraph

    # the monochrome polynomial is read off the Tutte polynomial, so it
    # skips past 22 edges, however few vertex colourings the graph has
    def ctx(num_edges):
        edges = [(0, 1)] * 8 + [(1, 2)] * 8 + [(0, 2)] * (num_edges - 16)
        doc = GraphDocument(Multigraph(3, edges))
        return verify_mod.VerifyContext(doc, cyclic_group(3), 1e-7, 10**8, 0)

    records = verify_mod._check_monochrome(ctx(22))
    assert [rec.passed for rec in records] == [True] * 3
    with pytest.raises(TermCapExceeded) as exc:
        verify_mod._check_monochrome(ctx(23))
    assert (exc.value.estimate, exc.value.cap) == (2**23, 2**22)


def test_spectral_split_records_depend_on_q_and_seed_alone():
    import qcolour.verify as verify_mod

    doc = CORPUS["theta"]

    def spectral(spec):
        records = run_battery(doc, group_from_name(spec), ("duality",), seed=3)
        return [rec for rec in records if rec.name.startswith("spectral.")]

    first = spectral("4")
    # groups of one order, and a second call, share the split draws
    assert [spectral(spec) for spec in ("4", "2x2", "f4")] == [first] * 3
    assert [rec.name for rec in first] == [
        "spectral.reconstruction",
        "spectral.rank-columns",
        "spectral.partition-equality",
    ]
    assert all(rec.passed is True for rec in first)
    # the cached draws equal fresh ones and cannot be altered
    records, gm, fv = verify_mod._spectral_draws(4, 3)
    fresh_records, fresh_gm, fresh_fv = verify_mod._spectral_draws.__wrapped__(4, 3)
    assert isinstance(records, tuple) and records == fresh_records == tuple(first[:2])
    assert np.array_equal(gm, fresh_gm) and np.array_equal(fv, fresh_fv)
    with pytest.raises(ValueError):
        gm[0, 0] = 1.0
    with pytest.raises(ValueError):
        fv[0] = 1.0


def test_graph_free_records_are_shared_and_equal_fresh_ones():
    import qcolour.verify as verify_mod

    shared = [
        verify_mod._check_unitarity,
        verify_mod._check_involution,
        verify_mod._check_convolution,
        verify_mod._check_subgroup_transform,
        verify_mod._check_character_bijection,
        verify_mod._check_character_det,
        verify_mod._check_parity_transforms,
    ]
    for name in ("theta", "k4"):
        doc = CORPUS[name]
        for spec in ("3", "2x2", "f4"):
            # tol 0 fails the float residuals, so a key without tol would show
            for tol in (1e-7, 0.0):
                ctx = verify_mod.VerifyContext(doc, group_from_name(spec), tol, 10**8, 2)
                for check in shared:
                    records = check(ctx)
                    assert records and records == check.uncached(ctx)
                    records.clear()  # a caller's list is its own
                    assert check(ctx)


def test_cli_verify_reports_cap_skips(corpus_files, capsys):
    path, _ = corpus_files["prism"]
    code = main(
        ["verify", "--graph", path, "--q", "4", "--suite", "all", "--max-terms", "100"]
    )
    out = capsys.readouterr()
    assert code == 0  # a skip is not a failure
    records = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    skips = [rec for rec in records if rec["name"].startswith("skip.")]
    assert skips
    for rec in records:
        assert set(rec) == {"name", "anchor", "lhs", "rhs", "residual", "pass"}
        if rec in skips:
            assert rec["anchor"] == "term-cap"
            assert rec["pass"] is None and rec["residual"] == 0.0
            assert int(rec["lhs"]) > int(rec["rhs"]) == 100  # estimate, cap
        else:
            assert rec["pass"] is True
    n, s = len(records), len(skips)
    assert f"{n} checks: {n - s} passed, 0 failed, {s} skipped" in out.err


GROUP_FREE_CHECKS = (
    "_check_orthogonal_invariance",
    "_check_zero_sum_chain",
    "_check_sine_and_kplus1",
    "_check_even_odd_proper4",
    "_check_rotation_covariance",
    "_check_gf4_identity",
    "_check_cubic_flow_model",
    "_check_tutte_edge_model",
    "_check_spectral",
)


def test_group_free_records_are_shared_and_equal_fresh_ones():
    import qcolour.verify as verify_mod

    checks = [getattr(verify_mod, name) for name in GROUP_FREE_CHECKS]
    for name, doc in CORPUS.items():
        for spec in ("2", "3", "4", "2x2", "f4"):
            ctx = verify_mod.VerifyContext(doc, group_from_name(spec), 1e-7, 10**8, 1)
            for check in checks:
                records = check(ctx)
                assert records == check.uncached(ctx), (name, spec, check.__name__)
                records.clear()  # a caller's list is its own
                assert check(ctx) == check.uncached(ctx)


def test_group_free_checks_recompute_for_another_graph_setting(monkeypatch):
    import dataclasses

    import qcolour.verify as verify_mod

    calls = []
    real = verify_mod.signed.kplus1_sign_sum

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_mod.signed, "kplus1_sign_sum", counted)
    doc = CORPUS["k4"]
    check = verify_mod._check_rotation_covariance

    def sums_run(doc, spec="3", tol=2.5e-7, max_terms=10**7, seed=0):
        """How many (k+1)-colour sums one shared call computes."""
        ctx = verify_mod.VerifyContext(doc, group_from_name(spec), tol, max_terms, seed)
        calls.clear()
        records = check(ctx)
        made = len(calls)
        assert records == check.uncached(ctx)
        return made

    # a tolerance no other test uses, so the first call computes
    assert sums_run(doc) == 2
    # other groups and seeds share it
    assert [sums_run(doc, spec) for spec in ("3", "2x2", "f4", "5")] == [0] * 4
    assert sums_run(doc, seed=4) == 0
    swapped = dataclasses.replace(doc, rotation=doc.rotation.swap_adjacent(0, 0))
    flipped = dataclasses.replace(doc, pfaffian_compatible=not doc.pfaffian_compatible)
    assert sums_run(swapped) == 2 and sums_run(swapped, "4") == 0
    assert sums_run(flipped) == 2
    assert sums_run(doc, tol=2.6e-7) == 2
    assert sums_run(doc, max_terms=10**7 + 1) == 2
    # the flag is read: without the assertion the proper-4 record is gone
    ctx = verify_mod.VerifyContext(doc, cyclic_group(3), 2.5e-7, 10**7, 0)
    assert verify_mod._check_even_odd_proper4(ctx)
    ctx = dataclasses.replace(ctx, doc=flipped)
    assert verify_mod._check_even_odd_proper4(ctx) == []


def test_signed_suite_on_k5_pins_the_vanishing_zero_sum_side():
    # 4-regular with |V| - |E| = -5 odd: both pairings vanish, so the
    # zero-sum side is compared against 0
    k5 = Multigraph(5, tuple(itertools.combinations(range(5), 2)))
    records = run_battery(GraphDocument(k5), cyclic_group(2), ("signed",), seed=0)
    assert len(records) == 13 and all(rec.passed is True for rec in records)
    (zero_sum,) = [r for r in records if r.name == "sign.zero-sum-vs-monochrome-transform"]
    assert zero_sum.rhs == "0"


def test_orthogonal_check_runs_at_its_plan(tmp_path, capsys, address_space_cap):
    # one vertex with five loops at q=5: each half-edge has its own label,
    # so the change of basis is a factor of the plan, not a transformed
    # 5^10 table, and the plan fits the default cap
    path = tmp_path / "loops.g"
    path.write_text(serialize_graph(GraphDocument(Multigraph(1, ((0, 0),) * 5))))
    assert main(["verify", "--graph", str(path), "--q", "5", "--suite", "fourier"]) == 0
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["name"] for rec in records if rec["pass"] is None] == []
    assert err.strip() == "17 checks: 17 passed, 0 failed, 0 skipped"


def test_orthogonal_check_runs_at_its_price():
    from qcolour.enumeration import TermCapExceeded
    from qcolour.models import VertexWeights, orthogonal_invariance_check
    from qcolour.groups import random_orthogonal

    # one vertex with three loops at q=3 and five U: each edge is summed
    # against its two half-edges, 3 * 3^3, then the six half-edge labels,
    # 3^6 + 3^5 + ... + 3
    g = Multigraph(1, ((0, 0),) * 3)
    weights = VertexWeights.uniform(cyclic_group(3))
    Us = [random_orthogonal(3, i) for i in range(5)]
    cost = 3 * 3**3 + sum(3**i for i in range(1, 7))
    assert orthogonal_invariance_check(g, weights, Us, max_terms=cost) == (True,) * 5
    with pytest.raises(TermCapExceeded) as err:
        orthogonal_invariance_check(g, weights, Us, max_terms=cost - 1)
    assert err.value.estimate == cost


def test_bundle_skips_and_refuses_within_the_address_space(
    tmp_path, capsys, address_space_cap
):
    # two vertices joined by 13 edges: every 13-colour vertex table has
    # 13^13 entries, so each check that would build one leaves a skip
    # record, and the edge model exits 3 naming its planned cost; the
    # split's edge side builds none, and its checks run
    path = tmp_path / "bundle.g"
    path.write_text(serialize_graph(GraphDocument(Multigraph(2, ((0, 1),) * 13))))
    assert main(["verify", "--graph", str(path), "--q", "13"]) == 0
    _out, err = capsys.readouterr()
    assert err.strip() == "37 checks: 28 passed, 0 failed, 9 skipped"
    assert main(["edge-model", "--graph", str(path), "--q", "13"]) == 3
    assert "328114698808273" in capsys.readouterr().err


def test_checks_read_by_the_flow_polynomial_refuse_the_tutte_pass_first(monkeypatch):
    import qcolour.verify as verify_mod

    def refused(*args, **kwargs):
        raise AssertionError("model sum built over the Tutte ceiling")

    monkeypatch.setattr(verify_mod.duality, "flow_cubic_edge_model", refused)
    monkeypatch.setattr(verify_mod.duality, "gf4_flow_identity_check", refused)
    monkeypatch.setattr(verify_mod.signed, "even_minus_odd_proper4", refused)
    # the prism C8 x K2, cubic and plane, with its Pfaffian flag asserted:
    # its 2^24 edge subsets are over the cap, its model sums are not
    rungs = [(i, i + 8) for i in range(8)]
    cycles = [(i + s, (i + 1) % 8 + s) for s in (0, 8) for i in range(8)]
    doc = GraphDocument(Multigraph(16, tuple(cycles + rungs)), pfaffian_compatible=True)
    records = run_battery(doc, cyclic_group(4), ("duality", "signed"), max_terms=4194304)
    skips = {rec.name: (rec.lhs, rec.rhs) for rec in records if rec.passed is None}
    for name in ("cubic_flow_model", "gf4_identity", "even_odd_proper4"):
        assert skips["skip." + name] == ("16777216", "4194304")


def test_over_cap_group_free_checks_skip_on_every_call():
    doc = CORPUS["prism"]
    skips = {
        "skip.zero_sum_chain",
        "skip.sine_and_kplus1",
        "skip.even_odd_proper4",
        "skip.rotation_covariance",
    }
    for spec in ("3", "2x2", "3"):
        G = group_from_name(spec)
        records = run_battery(doc, G, ("signed",), max_terms=50, seed=0)
        assert skips <= {rec.name for rec in records if rec.passed is None}


def test_a_check_that_raises_leaves_an_error_record_and_the_battery_goes_on(
    corpus_files, monkeypatch, capsys
):
    path, doc = corpus_files["k4"]
    G = cyclic_group(3)
    want = run_battery(doc, G, ("fourier",), seed=0)
    checks = SUITES["fourier"]
    (target,) = [c for c in checks if c.__name__ == "_check_convolution"]
    dropped = target(VerifyContext(doc, G, 1e-7, 10**8, 0))

    def raising(ctx):
        raise ValueError("no convolution today")

    raising.__name__ = target.__name__
    monkeypatch.setitem(SUITES, "fourier", [raising if c is target else c for c in checks])
    records = run_battery(doc, G, ("fourier",), seed=0)
    # one failed error record in the check's place, and every other check ran
    at = want.index(dropped[0])
    error = records[at]
    assert (error.name, error.anchor, error.lhs, error.rhs, error.passed) == (
        "error.convolution",
        "error",
        "ValueError",
        "no convolution today",
        False,
    )
    assert records[:at] + records[at + 1 :] == [r for r in want if r not in dropped]
    assert main(["verify", "--graph", path, "--q", "3", "--suite", "fourier"]) == 1
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[at] == {
        "name": "error.convolution",
        "anchor": "error",
        "lhs": "ValueError",
        "rhs": "no convolution today",
        "residual": None,
        "pass": False,
    }
    assert err.strip() == f"{len(records)} checks: {len(records) - 1} passed, 1 failed, 0 skipped"


@pytest.mark.parametrize("reads", [None, ()])
def test_a_check_that_raises_keeps_none_of_the_records_it_yielded(monkeypatch, reads):
    # the records a check yielded before it raised are dropped, and a shared
    # check keeps nothing, so a second call raises again
    import qcolour.verify as verify_mod

    monkeypatch.setitem(SUITES, "signed", list(SUITES["signed"]))

    @verify_mod._check("signed", reads=reads)
    def _check_half_done(ctx):
        yield verify_mod._record("half-done.first", "probe", 1, 1, 0)
        raise ValueError("stopped half way")

    for _ in range(2):
        records = run_battery(CORPUS["theta"], cyclic_group(3), ("signed",))
        mine = [(rec.name, rec.lhs, rec.rhs) for rec in records if "half" in rec.name]
        assert mine == [("error.half_done", "ValueError", "stopped half way")]


def test_cli_refuses_a_model_value_that_is_not_finite(tmp_path, capsys):
    # the signed 3-colouring sum of a 6000-cycle is +-2, but its float64
    # terms overflow; the vertex model on the same cycle stays finite
    n = 6000
    path = tmp_path / "cycle.g"
    cycle = Multigraph(n, tuple((v, (v + 1) % n) for v in range(n)))
    path.write_text(serialize_graph(GraphDocument(cycle)))
    assert main(["kplus1", "--graph", str(path), "--k", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "error: the float64 sum is not finite" in out.err
    args = ["--graph", str(path), "--q", "2", "--weights", "0.5,0.5,0.5,0.5"]
    assert main(["vertex-model", *args]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("petersen", ["xq", "--group", "3", "--s", "1e200,1,1", "--t", "1e200,1,1"]),
        ("k4", ["cwe", "--q", "2", "--weights", "inf,1"]),
        ("k4", ["hwe", "--q", "3", "--s", "1e300"]),
        ("k4", ["cwe", "--q", "2", "--weights", "1e300,1"]),
    ],
)
def test_cli_refuses_a_value_that_is_not_finite(corpus_files, capsys, name, argv):
    # a sum that is nan, or that overflows float64 on the way, has no digits
    # to print: one line of error and exit 3, as for a model value
    path, _ = corpus_files[name]
    assert main([argv[0], "--graph", path, *argv[1:]]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
