import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isospace.altspace import (degree, max_degree, max_rank_bruteforce, rad_of,
                               validate_decomposition)
from isospace.cli import main, run_command
from isospace.io import (emit_graph, emit_mats, emit_space, parse_graph,
                         parse_mats, parse_space)
from isospace.errors import GuardExceeded, ParseError
from isospace.ffield import Subspace, gaussian_binomial
from util import F2, F3, random_matrix_space, random_space

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


@pytest.mark.parametrize("parse, text, message", [
    (parse_space, "", "empty file"),
    (parse_space, "# a comment\n\n", "empty file"),
    (parse_space, "spc 2 2 1\n", "line 1: expected header 'ams p n m'"),
    (parse_space, "\nams 2 2\n", "line 2: expected header 'ams p n m'"),
    (parse_space, "ams 4 2 0\n", "line 1: p must be a prime in [2, 251], got 4"),
    (parse_space, "ams 2 x 0\n", "line 1: expected integers, got '2 x 0'"),
    (parse_graph, "", "empty file"),
    (parse_graph, "graph\n", "line 1: expected header 'graph n'"),
    (parse_graph, "graph 3 1\n", "line 1: expected header 'graph n'"),
    (parse_graph, "graph -1\n", "line 1: need n >= 0"),
    (parse_mats, "", "empty file"),
    (parse_mats, "mats 2 1 2\n", "line 1: expected header 'mats p s t m'"),
    (parse_mats, "ams 2 1 2 1\n", "line 1: expected header 'mats p s t m'"),
    (parse_mats, "mats 1 1 1 0\n", "line 1: p must be a prime in [2, 251], got 1"),
])
def test_empty_files_and_bad_headers_are_pinned(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


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


def test_quantum_fidelity_is_priced_without_the_channel_matrix(tmp_path):
    # a fidelity is the Kraus stack and one batched product, 2 * 2|E| n^2:
    # 849,600 on the 60-vertex path, within the default guard (n^4 alone
    # would be 12,960,000)
    path = tmp_path / "p60.graph"
    path.write_text("graph 60\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 60)))
    argv = ["quantum", "fidelity", "--state", " ".join(["1"] * 60), "-f", str(path)]
    rep = run_command(argv)
    assert rep["results"]["n"] == 60 and 0.0 <= rep["results"]["fidelity"] <= 1.0
    assert run_command(["--guard", "849600"] + argv)["results"] == rep["results"]
    with pytest.raises(GuardExceeded, match="estimated 849600 iterations"):
        run_command(["--guard", "849599"] + argv)


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


@pytest.mark.parametrize("guard", [["--guard", "10"], []])
def test_from_graph_output_is_bounded_by_the_guard(tmp_path, capsys, guard):
    # 21 bytes in, |E| n^2 = 18,000,000 residues out: over the default 10^7
    path = tmp_path / "wide.graph"
    path.write_text("graph 3000\n1 2\n2 3\n")
    assert main(guard + ["from-graph", "-f", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("guard exceeded") and len(err.strip().splitlines()) == 1


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
    # also where the formula, had it run, would exceed the guard
    assert _fails_cleanly(["count", "iso-formula", "4001", "2000", "3"], capsys) == 5
    assert _fails_cleanly(["count", "gaussian", "5000", "6000", "3"], capsys) == 5


def test_adjoint_find_hyperbolic_on_a_line(tmp_path):
    # n = 1 has no isotropic 2-decomposition, though the search succeeds
    line = tmp_path / "line.ams"
    line.write_text("ams 2 1 0\n")
    rep = run_command(["adjoint", "-f", str(line), "--find-hyperbolic"])
    assert rep["results"]["decomposition"] is None


def test_adjoint_route_decides_a_form_on_f3_4(tmp_path, capsys):
    # dim Adj = 16: 3^16 coefficient vectors would exceed the default guard
    form = tmp_path / "form.ams"
    form.write_text("ams 3 4 1\n0 1 1 0\n2 0 2 1\n2 1 0 2\n0 2 1 0\n")
    assert main(["adjoint", "-f", str(form), "--find-hyperbolic", "--json"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["dim"] == 16 and res["hyperbolic_idempotent"] is not None
    sp = parse_space(form.read_text())
    validate_decomposition(sp, [Subspace.from_vectors(sp.field, sp.n, rows)
                                for rows in res["decomposition"]])
    assert main(["alpha-bipartite", "-f", str(form), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["alpha"] == 2


def test_baer_over_f2_is_an_input_error(files, capsys):
    # K3_AMS is well formed, but the Baer correspondence needs odd p
    assert _fails_cleanly(["baer", "-f", files["k3.ams"]], capsys) == 5


def test_the_baer_group_of_a_space_with_no_forms(tmp_path, capsys):
    # the empty tuple on F_3^2 gives F_3^2: the generators I + E_{0,1+i}
    # of GL(3, 3) and no central ones
    path = tmp_path / "empty.ams"
    path.write_text("ams 3 2 0\n")
    res = run_command(["baer", "-f", str(path), "--verify"])["results"]
    assert (res["generator_count"], res["degree"]) == (2, 3)
    assert res["order"] == 9 == res["expected_order"]
    assert res["abelian"] and res["commutator_order"] == 1
    assert res["max_abelian_order"] == 9
    # over F_2 the characteristic is still what is refused
    path.write_text("ams 2 2 0\n")
    assert main(["baer", "-f", str(path)]) == 5
    assert "requires odd p" in capsys.readouterr().err


def test_the_baer_group_of_the_zero_ambient_space_is_trivial(tmp_path, capsys):
    # F_3^0 has no generators at all; its Baer group is the trivial group
    path = tmp_path / "zero.ams"
    path.write_text("ams 3 0 0\n")
    assert main(["--json", "baer", "-f", str(path), "--verify"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["generator_count"], res["degree"]) == (0, 1)
    assert res["order"] == 1 == res["expected_order"]
    assert res["abelian"] and res["commutator_order"] == 1 == res["max_abelian_order"]


def test_maximal_reverifies_every_space_it_reports(tmp_path, files, capsys, monkeypatch):
    # neither a space that is not isotropic nor an isotropic one short of
    # its radical is reported, whichever method found it
    from isospace import cli
    empty = tmp_path / "empty.ams"
    empty.write_text("ams 2 2 0\n")
    cases = [(files["k3.ams"], Subspace.full(F2, 3)),
             (str(empty), Subspace.from_vectors(F2, 2, [[1, 0]]))]
    for path, wrong in cases:
        assert rad_of(parse_space(Path(path).read_text()), wrong) != wrong
        for method in ("filter", "branch"):
            monkeypatch.setattr(cli, f"enumerate_maximal_{method}",
                                lambda space, guard: (wrong,))
            argv = ["maximal", "-f", path, "--method", method]
            assert _fails_cleanly(argv, capsys) == 4


def test_quantum_on_a_disconnected_graph_is_an_input_error(tmp_path, capsys):
    g = tmp_path / "two-edges.graph"
    g.write_text("graph 4\n1 2\n3 4\n")
    assert _fails_cleanly(["quantum", "period", "-f", str(g)], capsys) == 5


def test_alpha_bipartite_malformed_rows_are_a_parse_error(files, capsys):
    assert _fails_cleanly(["alpha-bipartite", "-f", files["j.ams"],
                           "--u1", "a b", "--u2", "0 1"], capsys) == 2


@pytest.mark.parametrize("flag", ["--u1", "--u2"])
def test_alpha_bipartite_needs_both_blocks(tmp_path, capsys, flag):
    # one block alone is a parse error, not a silent switch to the adjoint route
    form = tmp_path / "form.ams"
    form.write_text("ams 2 2 1\n0 1\n1 0\n")
    assert _fails_cleanly(["alpha-bipartite", "-f", str(form), flag, "1 1"], capsys) == 2


@pytest.mark.parametrize("text", [K3_AMS, "ams 2 0 0\n"], ids=["k3", "zero-n0"])
def test_alpha_bipartite_without_a_2_decomposition_is_an_input_error(tmp_path, capsys, text):
    # a well-formed space outside the command's domain: exit 5, not 4
    form = tmp_path / "form.ams"
    form.write_text(text)
    assert main(["alpha-bipartite", "-f", str(form)]) == 5
    assert capsys.readouterr().err == ("input error: space is not bipartite (no isotropic "
                                       "2-decomposition found); give --u1/--u2\n")


@pytest.mark.parametrize("u2, message", [
    ("0 1 0; 0 0 1", "decomposition part is not isotropic"),
    ("0 1 0", "parts do not form a direct sum decomposition of F^n")], ids=["edge", "short"])
def test_alpha_bipartite_blocks_that_are_no_2_decomposition_are_an_input_error(
        tmp_path, capsys, monkeypatch, u2, message):
    # well-formed blocks outside the command's domain: exit 5, not 4, with
    # the library's message, and the pair validated once
    from isospace import bipartite
    calls, inner = [], bipartite.validate_decomposition

    def validating(space, parts):
        calls.append(parts)
        return inner(space, parts)

    monkeypatch.setattr(bipartite, "validate_decomposition", validating)
    form = tmp_path / "k3.ams"
    form.write_text(K3_AMS)
    assert main(["alpha-bipartite", "-f", str(form), "--u1", "1 0 0", "--u2", u2]) == 5
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert len(calls) == 1


def test_ncrk_pad_is_checked_before_the_scan(tmp_path, capsys, monkeypatch):
    from isospace import cli

    def scan(b, guard=None):
        raise AssertionError("ncrk_brute ran before --pad was checked")

    monkeypatch.setattr(cli, "ncrk_brute", scan)
    square = tmp_path / "square.mats"
    square.write_text("mats 2 2 2 1\n1 0\n0 1\n")
    assert _fails_cleanly(["ncrk", "-f", str(square), "--pad"], capsys) == 2


def test_malformed_arguments_stay_parse_errors(files, tmp_path, capsys):
    notjson = tmp_path / "report.txt"
    notjson.write_text("alpha: 2\n")
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"results": {"field": 2, "witness": [[1, 0]]}}))
    binary = tmp_path / "binary.ams"
    binary.write_bytes(b"ams 2 1 0\n\xff\n")
    deep = tmp_path / "deep.json"
    deep.write_text('{"results": {"witness": ' + "[" * 100000 + "]" * 100000 + "}}")
    argv_list = [["alpha", "-f", str(binary)],
                 ["from-graph", "-f", files["p3.graph"], "--field", "4"],
                 ["to-graph-witness", "-f", files["p3.graph"], "--report", str(notjson)],
                 ["to-graph-witness", "-f", files["p3.graph"], "--report", str(short)],
                 ["to-graph-witness", "-f", files["p3.graph"], "--report", str(deep)],
                 ["quantum", "fidelity", "-f", files["c4.graph"], "--state", "1 x 0 0"],
                 ["quantum", "fidelity", "-f", files["c4.graph"], "--state", "1 0"]]
    # a report's field and witness entries are JSON integers, never bools
    for k, results in enumerate([{"field": 3.7, "witness": [[1, 0, 0]]},
                                 {"field": "3", "witness": [[1, 0, 0]]},
                                 {"field": True, "witness": [[1, 0, 0]]},
                                 {"field": 2, "witness": [[True, False, False]]},
                                 {"field": 2, "parts": [[[False, True, False]]]}]):
        report = tmp_path / f"odd{k}.json"
        report.write_text(json.dumps({"results": results}))
        argv_list.append(["to-graph-witness", "-f", files["p3.graph"], "--report", str(report)])
    for argv in argv_list:
        assert _fails_cleanly(argv, capsys) == 2, argv


def test_to_graph_witness_with_no_parts(files, tmp_path, capsys):
    report = tmp_path / "empty.json"
    report.write_text(json.dumps({"results": {"field": 2, "parts": []}}))
    assert _fails_cleanly(["to-graph-witness", "-f", files["p3.graph"],
                           "--report", str(report)], capsys) == 4
    # the empty decomposition is the one decomposition of F^0
    empty = tmp_path / "empty.graph"
    empty.write_text("graph 0\n")
    rep = run_command(["to-graph-witness", "-f", str(empty), "--report", str(report)])
    assert rep["results"]["coloring"] == [] and rep["results"]["count"] == 0


def test_the_space_of_the_empty_graph_loads_back(tmp_path):
    # from-graph writes "ams 2 0 0" for graph 0; alpha, chi, decompose
    # and stats read it
    empty = tmp_path / "empty.graph"
    empty.write_text("graph 0\n")
    space = tmp_path / "empty.ams"
    space.write_text(run_command(["from-graph", "-f", str(empty), "--field", "2"])
                     ["results"]["space"])
    assert space.read_text() == "ams 2 0 0\n"
    rep = run_command(["alpha", "-f", str(space)])["results"]
    assert rep["alpha"] == 0 and rep["witness"] == []
    for method in ("brute", "lawler", "maxcover"):
        assert run_command(["chi", "-f", str(space), "--method", method])["results"]["chi"] == 0
    for method in ("greedy-deg", "lawler"):
        rep = run_command(["decompose", "-f", str(space), "--method", method])["results"]
        assert rep["parts"] == [] and rep["count"] == 0
    rep = run_command(["stats", "-f", str(space)])["results"]
    assert rep["n"] == rep["dim"] == rep["greedy_maximal_dim"] == rep["max_degree"] == 0


def test_json_flag_is_read_from_the_parsed_arguments(capsys):
    for argv in (["count", "gaussian", "4", "2", "2", "--js"],
                 ["count", "gaussian", "4", "2", "2", "--json"],
                 ["--json", "count", "gaussian", "4", "2", "2"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["results"]["value"] == "35", argv
    assert main(["count", "gaussian", "4", "2", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "what: gaussian"


def test_import_leaves_numpy_unloaded():
    import isospace
    src = str(Path(isospace.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import isospace, isospace.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_degree_and_rank_sweeps_match_all_vectors(tmp_path):
    # max_degree, max_rank and the stats histogram sweep one vector per
    # line; the reference here sweeps every vector and coefficient vector
    rng = random.Random(31)
    for k in range(16):
        field = (F2, F3)[k % 2]
        n = rng.randint(1, 4)
        sp = random_space(rng, field, n, rng.randint(0, 3))
        hist = Counter(degree(sp, v) for v in product(range(field.p), repeat=n) if any(v))
        rank = max(sp.combination(c).rank() for c in product(range(field.p), repeat=sp.dim))
        assert max_degree(sp) == max(hist)
        assert max_rank_bruteforce(sp) == rank
        path = tmp_path / f"s{k}.ams"
        path.write_text(emit_space(sp))
        # over F_3^4 the guard of 60 is below the 80 nonzero vectors
        res = run_command(["--guard", "60", "stats", "-f", str(path)])["results"]
        assert res["degree_histogram"] == {str(d): c for d, c in sorted(hist.items())}
        assert res["max_degree"] == max(hist) and res["max_rank"] == rank


def test_count_prints_values_beyond_the_int_to_str_digit_limit(capsys):
    # [300 choose 150]_3 has over 10,000 decimal digits
    assert main(["count", "gaussian", "300", "150", "3"]) == 0
    out = capsys.readouterr().out
    value = next(line for line in out.splitlines() if line.startswith("value: "))[7:]
    assert len(value) > 10_000 and value.isdigit() and value[0] != "0"
    back = 0
    for i in range(0, len(value), 1000):
        chunk = value[i:i + 1000]
        back = back * 10**len(chunk) + int(chunk)
    assert back == gaussian_binomial(300, 150, 3)
    assert run_command(["count", "gaussian", "4", "2", "2"])["results"]["value"] == "35"


def test_a_negative_guard_is_a_parse_error(files, capsys):
    assert _fails_cleanly(["alpha", "-f", files["k3.ams"], "--guard", "-5"], capsys) == 2
    assert _fails_cleanly(["--guard", "-1", "count", "gaussian", "4", "2", "2"], capsys) == 2
    assert _fails_cleanly(["alpha", "-f", files["k3.ams"], "--guard", "0"], capsys) == 3


def test_quantum_state_entries_must_be_finite(files, capsys):
    # NaN and infinities are parse errors; huge finite entries normalise
    # without overflow, and --json stays valid JSON
    for state in ("nan 1 1", "inf 0 0", "1 -inf 0"):
        assert _fails_cleanly(["quantum", "fidelity", "-f", files["p3.graph"],
                               "--state", state, "--json"], capsys) == 2, state
    for state in ("1e308 1e308 1", "1.7e308 1.7e308 0"):
        assert main(["quantum", "fidelity", "-f", files["p3.graph"],
                     "--state", state, "--json"]) == 0
        res = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)["results"]
        assert abs(math.hypot(*res["state"]) - 1.0) < 1e-12
        assert abs(res["fidelity"] - 0.375) < 1e-9


F3_FORM_AMS = "ams 3 4 1\n0 1 1 0\n2 0 2 1\n2 1 0 2\n0 2 1 0\n"
GADGET_MATS = "mats 3 2 2 2\n1 0\n0 1\n0 1\n2 0\n"
FUZZ_TEXTS = {"ams": (K3_AMS, J3_AMS, F3_FORM_AMS), "graph": (P3_GRAPH, C4_GRAPH),
              "mats": (B_MATS, GADGET_MATS)}
# every subcommand that reads a file, by the kind of file it reads
FUZZ_COMMANDS = {
    "ams": [["alpha"], ["chi", "--method", "brute"], ["chi", "--method", "lawler"],
            ["chi", "--method", "maxcover"], ["maximal", "--method", "filter", "--list"],
            ["maximal", "--method", "branch"], ["decompose", "--method", "greedy-deg"],
            ["decompose", "--method", "lawler"], ["alpha-bipartite"],
            ["adjoint", "--find-hyperbolic"], ["dim2"], ["baer", "--verify"], ["stats"]],
    "graph": [["from-graph", "--field", "3"], ["to-graph-witness", "--report"],
              ["quantum", "period"], ["quantum", "decide2"],
              ["quantum", "fidelity", "--state", "1 1 0"]],
    "mats": [["ncrk", "--pad"], ["gadget-dim2"], ["singular-exists"]],
}


@st.composite
def mutated_inputs(draw):
    """A kind and one of its texts with one to three mutations: a flipped
    byte, a truncated line, or a body entry replaced by one out of range,
    negative, huge, or any residue (which can break the alternating
    condition).  Header lines keep their tokens, so every size stays small."""
    kind = draw(st.sampled_from(sorted(FUZZ_TEXTS)))
    data = draw(st.sampled_from(FUZZ_TEXTS[kind])).encode()
    for _ in range(draw(st.integers(1, 3))):
        lines = data.split(b"\n")
        how = draw(st.sampled_from(["flip", "truncate", "entry"]))
        if how == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif how == "truncate":
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
            data = b"\n".join(lines)
        elif how == "entry" and len(lines) > 1:
            i = draw(st.integers(1, len(lines) - 1))
            tokens = lines[i].split()
            if tokens:
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(
                    [b"-1", b"0", b"1", b"2", b"3", b"5", b"10" * 15, b"-" + b"9" * 25]))
                lines[i] = b" ".join(tokens)
                data = b"\n".join(lines)
    return kind, data


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_inputs())
def test_mutated_files_never_escape_the_exit_codes(tmp_path, capsys, case):
    kind, data = case
    path = tmp_path / f"fuzz.{kind}"
    path.write_bytes(data)
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"results": {"field": 2, "parts": [
        [[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]}}))
    for cmd in FUZZ_COMMANDS[kind]:
        extra = [str(report)] if cmd[-1] == "--report" else []
        code = main(["--guard", "300"] + cmd + extra + ["-f", str(path)])
        assert code in (0, 2, 3, 4, 5), (cmd, data)
        assert "Traceback" not in capsys.readouterr().err


# sha256 of every --help text (top level first), at 80 columns; argparse's
# layout differs between Python versions, and these are Python 3.11's
HELP_SHA256 = {
    "": "1add96fb91b3129c5c4246be42b9cca1585a28c6f6eb853e5125a071622cdebb",
    "alpha": "d9021021949666689a870f24d77cd49f8912369c241bc5055771d5ca895ff132",
    "chi": "5ed269c3a7b1b39bf7fe07ac170bb273d658886997e8691947b032ddcab650fd",
    "maximal": "3c6b24b34f8ebf316fac7c492c5260a90614e84325a73e63b2625e9312e88a34",
    "decompose": "ba343fdf75e4d8727816603186a3048f1be77b1f38aad95649e3dbff98132327",
    "from-graph": "c0187c68b799722a460342ffdaf69858942365e1d066fed5c76582b54113d26b",
    "to-graph-witness": "35b7d6e1632df692c7f7b2d4d6d4c3fdef2e3d31eaf2d42ed3ee54eb57098b06",
    "ncrk": "36ec9d6e090869fba0c0d71eb7237a0efb4eb3e502e10bf174fd491cdea3dc52",
    "alpha-bipartite": "68ab5ec90751f5d15bc7ad83367ea7dec8fd04c3a5e08947603440a888b55f74",
    "adjoint": "8069d7e2d8fa0710cb99d0ac0684b1d90de688f3befd8e86f9134f54b0adfd77",
    "dim2": "b6ca5c5934c628aca28a47d38533164d810be8bc7bc8d88cc1d3f90c90c31b41",
    "gadget-dim2": "bb1d2773951525de94bcb34b0a0ac17abe4fdb429420981c648e5d992555c6e5",
    "singular-exists": "e9256234db6a0cd08f8c062a91961defbb8ed8370a39be30276139024ee01712",
    "baer": "6fb3bcffae18d657205ff926f36db15745bdfbb1c63a8a5ea1186206a8c4d871",
    "quantum": "990b4e722c4933df6fba18472d68575ef99ed07076890961168aff7425a01500",
    "count": "d607fca55b1e31c40ede4256c47d4b4696e4a040bddeffa7f79c054e7278e19e",
    "stats": "60d852c991a8883dd71612197780893d0dff434b77fc37f3aa524474e3f68ab8",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help layout pinned on Python 3.11")
@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_texts_are_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(([command] if command else []) + ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command]


def test_count_is_bounded_by_the_guard(capsys):
    # both the product loop and the decimal conversion need the guard first
    for argv in (["--guard", "10", "count", "gaussian", "200000", "100000", "2"],
                 ["count", "gaussian", "4000", "2000", "3"],
                 ["count", "iso-formula", "4000", "2000", "3"]):
        t0 = time.perf_counter()
        assert main(argv) == 3, argv
        assert time.perf_counter() - t0 < 1.0, argv
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1, argv
    rep = run_command(["--guard", "0", "count", "gaussian", "4", "2", "2"])
    assert rep["results"]["value"] == "35"


# small inputs whose work before the first guard check grew with n, or that
# took no guard at all: each must exit 3 with one stderr line, in seconds
PATH_40 = "graph 40\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 40))
PATH_48 = "graph 48\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 48))
PATH_200 = "graph 200\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 200))
K_40 = "graph 40\n" + "".join(f"{i} {j}\n" for i in range(1, 41) for j in range(i + 1, 41))
# e_1..e_30 and e_31..e_60 of F_2^60: a 30 x 30 block space, whose scan
# of F^30 is priced before it starts
UNIT_60 = [" ".join(str(int(i == j)) for j in range(60)) for i in range(60)]
HALVES_60 = ["--u1", ";".join(UNIT_60[:30]), "--u2", ";".join(UNIT_60[30:])]


@pytest.mark.parametrize("argv, text", [
    (["--guard", "10", "stats"], "ams 2 15000 0\n"),
    (["--guard", "10", "dim2"], "ams 2 15000 0\n"),
    (["--guard", "10", "alpha"], "ams 2 4000 0\n"),
    (["--guard", "10", "chi", "--method", "lawler"], "ams 2 800 0\n"),
    (["--guard", "10", "alpha-bipartite"] + HALVES_60, "ams 2 60 0\n"),
    (["--guard", "10", "decompose", "--method", "greedy-deg"], "ams 2 500 0\n"),
    (["--guard", "10", "to-graph-witness", "--report"], "graph 22\n"),
    (["--guard", "10", "chi", "--method", "lawler"], "ams 2 10000 0\n"),
    (["--guard", "10", "decompose", "--method", "lawler"], "ams 2 10000 0\n"),
    (["--guard", "1000000", "quantum", "period"], PATH_40),
    (["quantum", "period"], PATH_48),
    (["quantum", "decide2"], PATH_48),
    (["quantum", "period"], K_40),
    (["quantum", "fidelity", "--state", " ".join(["1"] * 200)], PATH_200),
], ids=["stats", "dim2", "alpha", "chi-lawler", "alpha-bipartite", "decompose-greedy-deg",
        "to-graph-witness", "chi-lawler-restrict", "decompose-lawler", "quantum-period",
        "quantum-period-spectrum", "quantum-decide2-spectrum", "quantum-period-product",
        "quantum-fidelity"])
def test_large_inputs_trip_the_guard_at_once(tmp_path, argv, text):
    path = tmp_path / "input"
    path.write_text(text)
    if argv[-1] == "--report":
        # F_2 parts <e_12..e_22>, <e_1..e_11>: the column search tries
        # every other 11-subset before the last
        unit = [[int(i == j) for j in range(22)] for i in range(22)]
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"results": {"field": 2, "parts": [unit[11:], unit[:11]]}}))
        argv = argv + [str(report)]
    proc = subprocess.run([sys.executable, "-m", "isospace"] + argv + ["-f", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert proc.stdout == "" and len(lines) == 1 and lines[0].startswith("guard exceeded")


def test_the_adjoint_route_is_priced_before_its_linear_systems(tmp_path, capsys):
    # one form on F_2^40, non-degenerate on F^38: each call built and
    # reduced a 1,444-equation system for seconds before any guard check
    path = tmp_path / "form.ams"
    path.write_text(emit_space(random_space(random.Random(0), F2, 40, 1)))
    for cmd in (["adjoint"], ["adjoint", "--find-hyperbolic"], ["alpha-bipartite"]):
        t0 = time.perf_counter()
        assert main(["--guard", "10"] + cmd + ["-f", str(path)]) == 3, cmd
        assert time.perf_counter() - t0 < 1.0, cmd
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1, cmd
        assert "row operations" in err, cmd


def test_ncrk_scans_the_smaller_side(tmp_path, capsys):
    # 2 x 12 over F_2 under the default guard: the 5 subspaces of F^2,
    # where F^12 has about 4 x 10^8
    b = random_matrix_space(random.Random(12), F2, 2, 12, 3)
    path = tmp_path / "b.mats"
    path.write_text(emit_mats(b))
    assert main(["ncrk", "-f", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["ncrk"] == 2


def test_alpha_bipartite_on_a_large_zero_space(tmp_path):
    # the adjoint route splits off <e_1>, so the block space is 1 x 399
    path = tmp_path / "zero.ams"
    path.write_text("ams 2 400 0\n")
    proc = subprocess.run([sys.executable, "-m", "isospace", "--guard", "10",
                           "alpha-bipartite", "-f", str(path), "--json"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["alpha"] == 400


def test_a_closed_stdout_exits_6_without_a_traceback():
    # the read end is closed before the child starts, so its first write
    # to stdout fails, whatever the timing
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "isospace", "count", "gaussian",
                               "4", "2", "2", "--json"],
                              stdout=w, stderr=subprocess.PIPE, text=True, timeout=30)
    finally:
        os.close(w)
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 6, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("output error")


def test_running_out_of_memory_exits_7_without_a_traceback(tmp_path):
    # alpha on F_3^9 with one form builds a lattice far past 150 MB of
    # address space long before it reaches the default guard
    import resource
    path = tmp_path / "big.ams"
    path.write_text(emit_space(random_space(random.Random(0), F3, 9, 1)))
    cap = 150 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run([sys.executable, "-m", "isospace", "alpha", "-f", str(path)],
                          capture_output=True, text=True, timeout=120, preexec_fn=limit)
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 7, proc.stderr
    assert proc.stdout == "" and len(lines) == 1 and lines[0].startswith("memory error")


def test_running_out_of_memory_in_a_lattice_on_f2_14_prints_one_line(tmp_path):
    # one form on F_2^14 walks its lattice on kernels, with no line masks;
    # alpha and the brute chi both run out of 150 MB inside that walk
    import resource
    path = tmp_path / "big.ams"
    path.write_text(emit_space(random_space(random.Random(0), F2, 14, 1)))
    cap = 150 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    for cmd in (["alpha"], ["chi", "--method", "brute"]):
        proc = subprocess.run([sys.executable, "-m", "isospace", *cmd, "-f", str(path)],
                              capture_output=True, text=True, timeout=120, preexec_fn=limit)
        lines = proc.stderr.strip().splitlines()
        assert proc.returncode == 7, proc.stderr
        assert proc.stdout == "" and len(lines) == 1 and lines[0].startswith("memory error")
