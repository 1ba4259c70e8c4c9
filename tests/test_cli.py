import json
import subprocess
import sys

import pytest

from isospace.cli import main, run_command
from isospace.io import (emit_graph, emit_mats, emit_space, parse_graph,
                         parse_mats, parse_space)
from isospace.errors import ParseError

K3_AMS = """# the triangle space over F_2
ams 2 3 3
0 1 0
1 0 0
0 0 0
0 0 1
0 0 0
1 0 0
0 0 0
0 0 1
0 1 0
"""

P3_GRAPH = "graph 3\n1 2\n2 3\n"
C4_GRAPH = "graph 4\n1 2\n2 3\n3 4\n1 4\n"
J3_AMS = "ams 3 2 1\n0 1\n2 0\n"
B_MATS = "mats 2 1 2 1\n1 0\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("k3.ams", K3_AMS), ("p3.graph", P3_GRAPH),
                       ("c4.graph", C4_GRAPH), ("j.ams", J3_AMS),
                       ("b.mats", B_MATS)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_parse_emit_roundtrip_space():
    sp = parse_space(K3_AMS)
    assert sp.dim == 3 and sp.n == 3
    canonical = emit_space(sp)
    assert emit_space(parse_space(canonical)) == canonical


def test_parse_emit_roundtrip_graph():
    g = parse_graph(P3_GRAPH)
    assert g.edges == ((0, 1), (1, 2))
    canonical = emit_graph(g)
    assert emit_graph(parse_graph(canonical)) == canonical


def test_parse_emit_roundtrip_mats():
    b = parse_mats(B_MATS)
    canonical = emit_mats(b)
    assert emit_mats(parse_mats(canonical)) == canonical


def test_parse_errors_carry_location():
    with pytest.raises(ParseError, match="line 2"):
        parse_space("ams 2 2 1\n0 2\n1 0\n")
    with pytest.raises(ParseError, match="header"):
        parse_space("spc 2 2 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("graph 2\n1 3\n")
    with pytest.raises(ParseError):
        parse_space("ams 2 2 1\n1 1\n1 0\n")  # nonzero diagonal


def test_chi_command(files):
    rep = run_command(["chi", "-f", files["k3.ams"], "--method", "maxcover"])
    assert rep["results"]["chi"] == 3
    rep = run_command(["chi", "-f", files["k3.ams"], "--method", "brute"])
    assert rep["results"]["chi"] == 3 and len(rep["results"]["parts"]) == 3


def test_alpha_and_witness_reverify(files):
    rep = run_command(["alpha", "-f", files["k3.ams"]])
    assert rep["results"]["alpha"] == 1
    assert rep["results"]["witness"] == [[1, 0, 0]]


def test_count_commands():
    rep = run_command(["count", "iso-formula", "4", "2", "2"])
    assert rep["results"]["value"] == "15"
    rep = run_command(["count", "gaussian", "4", "2", "2"])
    assert rep["results"]["value"] == "35"


def test_quantum_period_command(files):
    rep = run_command(["quantum", "period", "-f", files["c4.graph"]])
    assert rep["results"]["period"] == 2
    rep = run_command(["quantum", "decide2", "-f", files["c4.graph"]])
    assert rep["results"]["iso_2_decomposition"] is True
    rep = run_command(["quantum", "fidelity", "-f", files["c4.graph"],
                       "--state", "1 1 0 0"])
    assert 0.0 <= rep["results"]["fidelity"] <= 1.0


def test_maximal_and_decompose(files):
    rep = run_command(["maximal", "-f", files["k3.ams"], "--method", "branch"])
    assert rep["results"]["count"] == 7
    rep = run_command(["decompose", "-f", files["k3.ams"], "--method", "greedy-deg"])
    assert rep["results"]["count"] == 3


def test_ncrk_pad(files):
    rep = run_command(["ncrk", "-f", files["b.mats"], "--pad"])
    assert rep["results"]["ncrk"] == 1
    assert rep["results"]["padded_ncrk"] == 2


def test_adjoint_and_alpha_bipartite(files):
    rep = run_command(["adjoint", "-f", files["j.ams"], "--find-hyperbolic"])
    assert rep["results"]["dim"] == 4
    assert rep["results"]["hyperbolic_idempotent"] is not None
    rep = run_command(["alpha-bipartite", "-f", files["j.ams"],
                       "--u1", "1 0", "--u2", "0 1"])
    assert rep["results"]["alpha"] == 1


def test_baer_verify(files):
    rep = run_command(["baer", "-f", files["j.ams"], "--verify"])
    res = rep["results"]
    assert res["order"] == 27 == res["expected_order"]
    assert res["commutator_order"] == 3
    assert res["max_abelian_order"] == 9


def test_to_graph_witness_roundtrip(files, tmp_path):
    # alpha witness on the path graph -> independent set {1, 3}
    p3ams = tmp_path / "p3.ams"
    rep = run_command(["from-graph", "-f", files["p3.graph"], "--field", "2"])
    p3ams.write_text(rep["results"]["space"])
    rep = run_command(["alpha", "-f", str(p3ams)])
    report_path = tmp_path / "alpha.json"
    report_path.write_text(json.dumps(rep))
    rep2 = run_command(["to-graph-witness", "-f", files["p3.graph"],
                        "--report", str(report_path)])
    assert rep2["results"]["independent_set"] == [1, 3]
    # chi certificate -> coloring
    rep = run_command(["chi", "-f", str(p3ams), "--method", "lawler"])
    report_path.write_text(json.dumps(rep))
    rep3 = run_command(["to-graph-witness", "-f", files["p3.graph"],
                        "--report", str(report_path)])
    blocks = rep3["results"]["coloring"]
    assert sorted(v for b in blocks for v in b) == [1, 2, 3]
    assert len(blocks) == 2


def test_exit_codes(files, tmp_path):
    bad = tmp_path / "bad.ams"
    bad.write_text("ams 2 2 1\n0 2\n1 0\n")
    assert main(["alpha", "-f", str(bad)]) == 2
    assert main(["--guard", "5", "maximal", "-f", files["k3.ams"]]) == 3
    assert main(["alpha", "-f", files["k3.ams"]]) == 0


def test_report_determinism(files, capsys):
    rep1 = run_command(["--seed", "7", "chi", "-f", files["k3.ams"]])
    rep2 = run_command(["--seed", "7", "chi", "-f", files["k3.ams"]])
    del rep1["timing_ms"], rep2["timing_ms"]
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_console_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "isospace", "--json", "chi", "-f", files["k3.ams"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["results"]["chi"] == 3


def _fails_cleanly(argv, capsys):
    """Exit code of main(argv), checking for a one-line stderr message."""
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return code


def test_to_graph_witness_missing_report(files, tmp_path, capsys):
    missing = str(tmp_path / "no-such-report.json")
    assert _fails_cleanly(["to-graph-witness", "-f", files["p3.graph"],
                           "--report", missing], capsys) == 2


def test_count_gaussian_rejects_q_below_2(capsys):
    assert _fails_cleanly(["count", "gaussian", "4", "2", "1"], capsys) == 2


def test_count_iso_formula_rejects_q_below_2(capsys):
    assert _fails_cleanly(["count", "iso-formula", "4", "1", "1"], capsys) == 2


def test_count_outside_the_domain_is_an_input_error(capsys):
    # well-formed arguments with no answer: an odd-dimensional form, d > n
    assert _fails_cleanly(["count", "iso-formula", "3", "1", "2"], capsys) == 5
    assert _fails_cleanly(["count", "gaussian", "2", "3", "2"], capsys) == 5


def test_adjoint_find_hyperbolic_on_a_line(tmp_path):
    # n = 1 has no isotropic 2-decomposition, though the search succeeds
    line = tmp_path / "line.ams"
    line.write_text("ams 2 1 0\n")
    rep = run_command(["adjoint", "-f", str(line), "--find-hyperbolic"])
    assert rep["results"]["decomposition"] is None


def test_baer_over_f2_is_an_input_error(files, capsys):
    # K3_AMS is well formed, but the Baer correspondence needs odd p
    assert _fails_cleanly(["baer", "-f", files["k3.ams"]], capsys) == 5


def test_quantum_on_a_disconnected_graph_is_an_input_error(tmp_path, capsys):
    g = tmp_path / "two-edges.graph"
    g.write_text("graph 4\n1 2\n3 4\n")
    assert _fails_cleanly(["quantum", "period", "-f", str(g)], capsys) == 5


def test_alpha_bipartite_malformed_rows_are_a_parse_error(files, capsys):
    assert _fails_cleanly(["alpha-bipartite", "-f", files["j.ams"],
                           "--u1", "a b", "--u2", "0 1"], capsys) == 2


def test_malformed_arguments_stay_parse_errors(files, tmp_path, capsys):
    notjson = tmp_path / "report.txt"
    notjson.write_text("alpha: 2\n")
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"results": {"field": 2, "witness": [[1, 0]]}}))
    for argv in (["from-graph", "-f", files["p3.graph"], "--field", "4"],
                 ["to-graph-witness", "-f", files["p3.graph"], "--report", str(notjson)],
                 ["to-graph-witness", "-f", files["p3.graph"], "--report", str(short)],
                 ["quantum", "fidelity", "-f", files["c4.graph"], "--state", "1 x 0 0"],
                 ["quantum", "fidelity", "-f", files["c4.graph"], "--state", "1 0"]):
        assert _fails_cleanly(argv, capsys) == 2, argv
