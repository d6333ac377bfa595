"""End-to-end CLI tests over a generated corpus."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sephash.cli import main
from sephash.matrix import Matrix, parse_matrix, write_matrix
from sephash.search import (
    cyclic_overlap_matrix,
    identity_construction,
    reed_solomon_frameproof,
)
from sephash.verification import find_violation

from helpers import reference_quadratic_piece


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    return code, json.loads(out) if out.strip().startswith(("{", "[")) else out


@pytest.fixture
def corpus(tmp_path):
    files = {}

    def put(name, matrix):
        path = tmp_path / name
        path.write_text(write_matrix(matrix))
        files[name] = str(path)

    put("identity4.txt", identity_construction(4, 3))
    put("cycle4.txt", cyclic_overlap_matrix(4, 3))
    put("cycle6.txt", cyclic_overlap_matrix(6, 5))
    put("rs-3-3-2.txt", reed_solomon_frameproof(3, 3, 2))
    # Constant columns: pairwise disjoint hyperedges, certainly cycle-free.
    put("disjoint.txt", Matrix(tuple(tuple(range(4)) for _ in range(3)), 4))
    files["tmp"] = str(tmp_path)
    return files


class TestVerify:
    def test_identity_holds(self, corpus):
        code, out = run(["verify", corpus["identity4.txt"], "--type", "1,3"])
        assert code == 0
        assert out == {"property": "separating{1,3}", "holds": True}

    def test_cycle_pattern_fails_with_witness(self, corpus):
        code, out = run(["verify", corpus["cycle4.txt"], "--type", "2,2"])
        assert code == 1
        assert out["holds"] is False
        assert out["witness"] == {"parts": [[0, 2], [1, 3]], "checked_rows": 4}

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n0 1\n")
        code, _ = run(["verify", str(bad), "--type", "1,1"])
        assert code == 2

    # Lines are numbered as parse_matrix numbers them: "\r" and "\r\n"
    # each end one line, and a break just before the bad byte counts.
    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff2 2 2\n0 1\n1 0\n", 1),
            (b"2 2 2\n0 1\n1 \xff\n", 3),
            (b"# c\r\n2 2 2\r0 1\r\n\xff", 4),
            (b"2 2 2\n0 1\n1 0\n# caf\xc3\xa9 \xc3\n", 4),
        ],
    )
    def test_non_utf8_file_names_line(self, tmp_path, capsys, data, line):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        code, _ = run(["verify", str(bad), "--type", "1,1"])
        assert code == 2
        assert f"error: line {line}: byte 0x" in capsys.readouterr().err

    def test_cff_mode(self, corpus):
        code, out = run(["verify", corpus["identity4.txt"], "--cff", "3"])
        assert code == 0 and out["holds"] is True

    def test_cff_failure_reports_witness(self, tmp_path):
        # Column 2 has no 1-entry, so any other member covers it.
        path = tmp_path / "zero-member.txt"
        path.write_text(write_matrix(Matrix(((1, 0, 0), (0, 1, 0)), 2)))
        code, out = run(["verify", str(path), "--cff", "2"])
        assert code == 1
        assert out == {
            "property": "cover-free(2)",
            "holds": False,
            "witness": {"member": 2, "cover": [0, 1]},
        }

    # One all-zero row: find_violation and is_cff recurse once per member
    # of the large part or cover, past the interpreter's recursion limit.
    @pytest.mark.parametrize("flag, w", [("--type", "1,{}"), ("--cff", "{}")])
    def test_input_past_the_recursion_limit_exits_2(self, tmp_path, capsys, flag, w):
        n = sys.getrecursionlimit() + 100
        path = tmp_path / "zeros.txt"
        path.write_text(write_matrix(Matrix(((0,) * n,), 2)))
        code, _ = run(["verify", str(path), flag, w.format(n - 1)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: input too deep for Python's recursion limit\n"

    def test_linear_mode(self, corpus):
        code, out = run(["verify", corpus["cycle4.txt"], "--linear"])
        assert code == 0 and out["holds"] is True
        code, out = run(["verify", corpus["identity4.txt"], "--linear"])
        assert code == 1

    def test_rs_corpus_verified(self, corpus):
        code, out = run(["verify", corpus["rs-3-3-2.txt"], "--type", "1,2"])
        assert code == 0 and out["holds"] is True


class TestBounds:
    def test_winner_first(self):
        code, out = run(["bounds", "4", "3", "2,2"])
        assert code == 0
        assert out[0]["provenance"] == "niu-cao" and out[0]["value"] == 5

    def test_three_symbol_phf(self):
        code, out = run(["bounds", "3", "4", "1,1,1"])
        assert code == 0
        assert out[0]["value"] == 20

    def test_single_row(self):
        code, out = run(["bounds", "1", "7", "1,1"])
        assert out[0]["value"] == 7

    def test_lower_included_and_sorted(self):
        code, out = run(["bounds", "4", "3", "2,2", "--lower"])
        values = [b["value"] for b in out if b["value"] != "infinity"]
        assert values == sorted(values)
        assert any("lower-bound" in b["flags"] for b in out)

    def test_threshold_mode(self):
        code, out = run(["bounds", "--threshold", "12"])
        assert code == 0
        assert out["lower"] == 87
        assert out["sandwich"] == ["N*(w-2)", "N*(w)"]

    def test_threshold_past_double_range(self):
        # (w-2)**2 near 10**320 overflows a double; the piece is exact.
        w = 10**160
        code, out = run(["bounds", "--threshold", str(w)])
        assert code == 0
        assert out["lower"] == out["pieces"]["quadratic"] == reference_quadratic_piece(w)

    def test_missing_args_exit_2(self):
        code, _ = run(["bounds", "4"])
        assert code == 2

    def test_large_unequal_type_exits_0(self):
        # The small-alphabet bound needs the simplex maximizer (t <= 8) for
        # unequal weights; at t = 9 it is left out and the rest is listed.
        code, out = run(["bounds", "20", "9", "2,2,2,2,2,2,2,2,3"])
        assert code == 0
        provs = {b["provenance"] for b in out}
        assert {"johnson-recursion", "balanced-grouping", "uniform-grouping"} <= provs
        assert "small-alphabet" not in provs

    def test_johnson_past_double_range_exits_0(self):
        code, out = run(["bounds", "700", "3", "2,2"])
        assert code == 0
        johnson = [b for b in out if b["provenance"] == "johnson-recursion"]
        assert johnson[0]["value"] == 3**234 + 2 * 3**233

    def test_real_bound_past_double_range_exits_0(self):
        # The small-alphabet bound needs 2.0**1050 here, past 1.8e308.
        code, out = run(["bounds", "2100", "2", "2,2"])
        assert code == 0
        small = [b for b in out if b["provenance"] == "small-alphabet"]
        assert small[0]["value"] == "infinity"

    def test_exact_bound_past_int_str_limit_exits_0(self):
        # 3**20000 has 9,543 digits, past the default int-to-str limit of
        # 4,300; the CLI lifts it only while it serializes.
        limit = sys.get_int_max_str_digits()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["bounds", "20000", "3", "1,1"])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            out = json.loads(buf.getvalue())
            johnson = [b for b in out if b["provenance"] == "johnson-recursion"]
            assert johnson[0]["value"] == 3**20000
        finally:
            sys.set_int_max_str_digits(limit)
        # Arguments are still parsed under the limit.
        code, _ = run(["bounds", "1" * 5000, "3", "1,1"])
        assert code == 2

    def test_lower_past_double_range_exits_0(self):
        # The probabilistic lower bound saturates at the largest double and
        # carries its natural log; every upper bound is still listed.
        code, out = run(["bounds", "5000", "4", "1,2", "--lower"])
        assert code == 0
        _, upper = run(["bounds", "5000", "4", "1,2"])
        lower = {b["provenance"]: b for b in out if "lower-bound" in b["flags"]}
        assert set(lower) == {"probabilistic-lower", "vacuous-columns"}
        prob = lower["probabilistic-lower"]
        assert prob["value"] == sys.float_info.max
        assert prob["params"]["log_value"] > math.log(sys.float_info.max)
        assert [b for b in out if "lower-bound" not in b["flags"]] == upper

    @pytest.mark.parametrize("q", ["100000000000000000", str(2**60)])
    def test_lower_where_g_rounds_to_one_exits_0(self, q):
        code, out = run(["bounds", "1", q, "1,1", "--lower"])
        assert code == 0
        prob = [b for b in out if b["provenance"] == "probabilistic-lower"][0]
        assert 0 < prob["value"] <= int(q)

    @pytest.mark.parametrize("argv", [["4", "0", "2,2"], ["4", "-1", "1,2"]])
    def test_alphabet_below_one_exits_2(self, argv):
        code, _ = run(["bounds", *argv])
        assert code == 2


class TestHypergraph:
    def test_cycle_found(self, corpus):
        code, out = run(["hypergraph", corpus["cycle4.txt"], "--rainbow", "4"])
        assert code == 0
        assert out["cycle"]["edges"] == [0, 1, 2, 3]
        assert out["cycle"]["k"] == 4

    def test_violation_attached(self, corpus):
        code, out = run(
            ["hypergraph", corpus["cycle6.txt"], "--rainbow", "6", "--violation"]
        )
        assert code == 0
        assert out["violation"]["parts"] == [[0, 2, 4], [1, 3, 5]]

    def test_no_cycle_exits_1(self, corpus):
        code, out = run(["hypergraph", corpus["disjoint.txt"], "--rainbow", "3"])
        assert code == 1
        assert out == {"cycle": None}

    def test_any_length(self, corpus):
        code, out = run(["hypergraph", corpus["cycle4.txt"], "--rainbow", "any"])
        assert code == 0 and out["cycle"]["k"] == 4

    def test_shadow_stats(self, corpus):
        code, out = run(["hypergraph", corpus["cycle4.txt"], "--shadow"])
        assert out == {
            "vertices": 12,
            "graph_edges": 24,
            "edge_disjoint_cliques": 4,
            "linear": True,
        }

    def test_out_of_range_k(self, corpus):
        code, _ = run(["hypergraph", corpus["cycle4.txt"], "--rainbow", "9"])
        assert code == 2


class TestSearch:
    def test_capacity_with_witness_file(self, corpus):
        out_path = corpus["tmp"] + "/witness.txt"
        code, out = run(
            ["search", "2", "2", "1,1", "--witness-out", out_path]
        )
        assert code == 0
        assert out["value"] == 4 and out["exact"] is True
        witness = parse_matrix(Path(out_path).read_text())
        assert find_violation(witness, [1, 1]) is None

    @pytest.mark.parametrize("q", ["0", "-1"])
    def test_alphabet_below_one_exits_2(self, q, capsys):
        code, _ = run(["search", "2", q, "1,1"])
        assert code == 2
        assert "q >= 1" in capsys.readouterr().err

    def test_budget_below_one_exits_2(self, capsys):
        code, _ = run(["search", "3", "3", "2,2", "--budget", "0"])
        assert code == 2
        assert "node_budget >= 1" in capsys.readouterr().err

    def test_family_past_the_recursion_limit_answers(self):
        code, out = run(["search", "1", "1200", "1,1"])
        assert code == 0
        assert (out["value"], out["exact"]) == (1200, True)

    def test_huge_space_exits_2_at_once(self, capsys):
        code, _ = run(["search", "1000000000000", "2", "1,1"])
        assert code == 2
        assert "too large" in capsys.readouterr().err

    def test_family_of_1200_columns_answers(self):
        # The search keeps its frames off the interpreter's stack, so a
        # family past the default recursion limit answers from the CLI.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "sephash", "search", "1", "1200", "1,1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert (out["value"], out["exact"]) == (1200, True)


class TestConstruct:
    def test_identity(self, corpus):
        path = corpus["tmp"] + "/id.txt"
        code, _ = run(["construct", "identity", "5", "2", "--out", path])
        assert code == 0
        m = parse_matrix(Path(path).read_text())
        assert m.rows == 5 and find_violation(m, [1, 2]) is None

    def test_rs_size(self, corpus):
        path = corpus["tmp"] + "/rs.txt"
        code, _ = run(["construct", "rs", "5", "4", "2", "--out", path])
        assert code == 0
        assert parse_matrix(Path(path).read_text()).cols == 25

    def test_random_deterministic(self, corpus):
        a = corpus["tmp"] + "/a.txt"
        b = corpus["tmp"] + "/b.txt"
        run(["construct", "random", "3", "3", "1,1", "--seed", "5", "--out", a])
        run(["construct", "random", "3", "3", "1,1", "--seed", "5", "--out", b])
        assert Path(a).read_text() == Path(b).read_text()

    def test_random_single_part_exits_2(self, capsys):
        code, _ = run(["construct", "random", "3", "3", "1", "--seed", "1"])
        assert code == 2
        assert "need at least two parts" in capsys.readouterr().err

    def test_rs_composite_field_exits_2(self, capsys):
        code, _ = run(["construct", "rs", "4", "2", "2"])
        assert code == 2
        assert "4 is not prime" in capsys.readouterr().err

    def test_rainbowfree_json(self):
        code, out = run(["construct", "rainbowfree", "3", "2", "--k", "3"])
        assert code == 0
        assert out["certified"] is True and out["edge_count"] == 2

    def test_rainbowfree_out_writes_the_edges_as_columns(self, corpus):
        path = corpus["tmp"] + "/rf.txt"
        code, out = run(["construct", "rainbowfree", "3", "3", "--k", "3", "--out", path])
        assert code == 0
        m = parse_matrix(Path(path).read_text())
        assert (m.rows, m.cols, m.q) == (3, out["edge_count"], 3)
        assert [list(c) for c in m.columns()] == out["edges"]

    def test_identity_without_out_writes_stdout(self):
        code, out = run(["construct", "identity", "3", "1"])
        assert code == 0
        assert out == "3 3 2\n1 0 0\n0 1 0\n0 0 1\n"

    def test_identity_bad_w_exit_2(self):
        code, _ = run(["construct", "identity", "3", "3"])
        assert code == 2

    def test_rainbowfree_budget_below_one_exits_2(self, capsys):
        code, _ = run(["construct", "rainbowfree", "3", "3", "--k", "3", "--budget", "0"])
        assert code == 2
        assert "node_budget >= 1" in capsys.readouterr().err


class TestConvert:
    def test_group_rows(self, corpus):
        path = corpus["tmp"] + "/g.txt"
        code, _ = run(["convert", corpus["identity4.txt"], "--group-rows", "2", "--out", path])
        assert code == 0
        m = parse_matrix(Path(path).read_text())
        assert (m.rows, m.q) == (2, 4)

    def test_double(self, corpus):
        path = corpus["tmp"] + "/d.txt"
        code, _ = run(["convert", corpus["identity4.txt"], "--double", "3", "--out", path])
        assert code == 0
        m = parse_matrix(Path(path).read_text())
        assert (m.rows, m.cols) == (8, 4)

    def test_derive(self, corpus):
        path = corpus["tmp"] + "/der.txt"
        code, _ = run(
            ["convert", corpus["identity4.txt"], "--derive", "0", "--w", "2", "--out", path]
        )
        assert code == 0
        assert parse_matrix(Path(path).read_text()).cols == 3

    def test_derive_column_out_of_range_exits_2(self, corpus, capsys):
        code, _ = run(["convert", corpus["identity4.txt"], "--derive", "5", "--w", "2"])
        assert code == 2
        assert "error: column 5 out of range [0, 4)" in capsys.readouterr().err

    def test_derive_without_w_exits_2(self, corpus, capsys):
        code, _ = run(["convert", corpus["identity4.txt"], "--derive", "0"])
        assert code == 2
        assert "--derive needs --w" in capsys.readouterr().err

    def test_requires_exactly_one_mode(self, corpus):
        code, _ = run(["convert", corpus["identity4.txt"]])
        assert code == 2
        code, _ = run(
            ["convert", corpus["identity4.txt"], "--group-rows", "2", "--double", "1"]
        )
        assert code == 2

    def test_group_rows_past_symbol_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tall.txt"
        path.write_text(write_matrix(Matrix.from_rows([[0, 1, 2]] * 40, 3)))
        code, _ = run(["convert", str(path), "--group-rows", "40"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestUsage:
    def test_unknown_command(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    def test_no_jobs_knob(self, corpus, monkeypatch):
        # The removed worker hint is an unknown option, and its old
        # environment variable no longer affects parsing.
        code, _ = run(["--jobs", "2", "verify", corpus["identity4.txt"], "--linear"])
        assert code == 2
        monkeypatch.setenv("SHF_JOBS", "abc")
        code, _ = run(["verify", corpus["identity4.txt"], "--type", "1,3"])
        assert code == 0

    @pytest.mark.parametrize("module", ["sephash", "sephash.cli"])
    def test_python_m_runs_from_a_checkout(self, module):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", module, "bounds", "4", "3", "2,2"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert any(b["provenance"] == "johnson-recursion" for b in out)
