import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcbound import cli, construct
from rcbound.cli import CSV_HEADER, main
from rcbound.graphs import gen_family, serialize_graph

from test_graphs import ladder


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.txt"
    path.write_text(serialize_graph(gen_family("petersen")))
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(serialize_graph(gen_family("cycle", 5)))
    return str(path)


class TestGen:
    def test_cycle_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "6")
        assert code == 0
        assert out.splitlines()[0] == "6 6"

    def test_petersen_file(self, capsys, tmp_path):
        target = tmp_path / "p.txt"
        code, _, _ = run(capsys, "gen", "petersen", "-o", str(target))
        assert code == 0
        assert target.read_text().splitlines()[0] == "10 15"

    def test_random3c_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "gen", "random3c", "20", "--extra", "5", "--seed", "42", "-o", str(a))
        run(capsys, "gen", "random3c", "20", "--extra", "5", "--seed", "42", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_arguments(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "2")
        assert code == 2 and "cycle" in err


class TestConstructCheck:
    def test_k4_summary(self, capsys, tmp_path):
        gpath = tmp_path / "k4.txt"
        gpath.write_text(serialize_graph(gen_family("complete", 4)))
        code, out, _ = run(capsys, "construct", str(gpath))
        assert code == 0
        assert out.strip() == "k=2 bound=3 ok"

    def test_failed_run_prints_trace(self, capsys, tmp_path, monkeypatch):
        gpath = tmp_path / "k4.txt"
        gpath.write_text(serialize_graph(gen_family("complete", 4)))
        monkeypatch.setattr(construct, "repair_step", lambda *args: None)
        code, out, err = run(capsys, "construct", str(gpath), "--trace")
        assert code == 4
        assert out == ("step=0 kind=seed_triangle added=0,1,2 new_colors=1 h=3 k=1 "
                       "budget_lhs=5 budget_rhs=8\n")
        assert "repair failed during final absorption" in err
        # without --trace the failure prints nothing to stdout
        code, out, err = run(capsys, "construct", str(gpath))
        assert (code, out) == (4, "")
        assert "repair failed during final absorption" in err

    def test_c5_kappa_gate(self, capsys, c5_file):
        code, _, err = run(capsys, "construct", c5_file)
        assert code == 3 and "connectivity 2" in err

    def test_force_reports_no_bound(self, capsys, c5_file):
        code, out, _ = run(capsys, "construct", c5_file, "--force")
        assert code == 0 and "bound=n/a" in out

    def test_force_ladder_gets_checked_coloring(self, capsys, tmp_path):
        gpath, cpath = tmp_path / "ladder.txt", tmp_path / "col.txt"
        gpath.write_text(serialize_graph(ladder(5)))
        code, out, _ = run(capsys, "construct", str(gpath), "--force", "--trace",
                           "-o", str(cpath))
        # the fallback absorption's first 4-set fails and the retry's
        # first one colors, so the ladder keeps the construction's coloring
        assert code == 0 and "step=1 kind=fallback_absorb added=2,3,7,8" in out
        assert out.splitlines()[-1] == "k=5 bound=n/a ok"
        code, out, _ = run(capsys, "check", str(gpath), str(cpath))
        assert code == 0 and out.strip() == "rainbow-connected"

    def test_force_disconnected_is_refused(self, capsys, tmp_path):
        gpath = tmp_path / "two.txt"
        gpath.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        code, _, err = run(capsys, "construct", str(gpath), "--force")
        assert code == 3 and "disconnected" in err

    def test_single_vertex_refused(self, capsys, tmp_path):
        gpath = tmp_path / "k1.txt"
        gpath.write_text("1 0\n")
        code, _, err = run(capsys, "construct", str(gpath))
        assert code == 3 and "connectivity 0 < 3" in err

    def test_force_single_vertex_gets_empty_coloring(self, capsys, tmp_path):
        gpath, cpath = tmp_path / "k1.txt", tmp_path / "col.txt"
        gpath.write_text("1 0\n")
        code, out, _ = run(capsys, "construct", str(gpath), "--force", "--trace",
                           "-o", str(cpath))
        assert code == 0 and "kind=spanning_tree" in out
        assert out.strip().splitlines()[-1] == "k=0 bound=n/a ok"
        code, out, _ = run(capsys, "check", str(gpath), str(cpath))
        assert code == 0 and out.strip() == "rainbow-connected"

    def test_petersen_roundtrip_through_check(self, capsys, petersen_file, tmp_path):
        cpath = tmp_path / "col.txt"
        code, out, _ = run(capsys, "construct", petersen_file, "-o", str(cpath), "--trace")
        assert code == 0
        assert "kind=seed_pendant_cycle" in out
        k = int(out.strip().splitlines()[-1].split()[0].split("=")[1])
        assert k <= 6
        code, out, _ = run(capsys, "check", petersen_file, str(cpath))
        assert code == 0 and out.strip() == "rainbow-connected"

    def test_check_negative_verdict(self, capsys, c5_file, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n" + "".join(f"{u} {v} 1\n" for u, v in gen_family("cycle", 5).edges))
        code, out, _ = run(capsys, "check", c5_file, str(bad))
        assert code == 1 and out.strip() == "NOT rainbow-connected: witness 0 2"

    def test_check_disconnected_is_negative_verdict(self, capsys, tmp_path):
        # two components: the checker reports the first pair no path joins
        gpath, cpath = tmp_path / "two.txt", tmp_path / "col.txt"
        gpath.write_text("4 2\n0 1\n2 3\n")
        cpath.write_text("1\n0 1 1\n2 3 1\n")
        code, out, _ = run(capsys, "check", str(gpath), str(cpath))
        assert code == 1 and out.strip() == "NOT rainbow-connected: witness 0 2"

    def test_check_edge_mismatch(self, capsys, c5_file, tmp_path):
        bad = tmp_path / "bad.txt"
        edges = gen_family("cycle", 5).edges[:-1]
        bad.write_text("1\n" + "".join(f"{u} {v} 1\n" for u, v in edges))
        code, _, err = run(capsys, "check", c5_file, str(bad))
        assert code == 2 and "missing" in err

    def test_check_endpoint_out_of_range(self, capsys, petersen_file, tmp_path):
        # exit 1 is the negative verdict; an endpoint past n-1 is an input error
        bad = tmp_path / "bad.txt"
        bad.write_text("15\n99 0 1\n")
        code, out, err = run(capsys, "check", petersen_file, str(bad))
        assert (code, out) == (2, "")
        assert "line 2: vertex index out of range 0..9" in err


    def test_check_huge_color_id(self, capsys, petersen_file, tmp_path):
        # a color id is a label: one of 10**30 must not become a 10**30-bit mask
        big = tmp_path / "big.txt"
        edges = gen_family("petersen").edges
        k = 10 ** 30
        big.write_text(f"{k}\n" + "".join(f"{u} {v} {k if i == 0 else 1}\n"
                                          for i, (u, v) in enumerate(edges)))
        code, out, _ = run(capsys, "check", petersen_file, str(big))
        assert code == 1 and out.startswith("NOT rainbow-connected: witness")


class TestExact:
    def test_c8(self, capsys, tmp_path):
        g = tmp_path / "c8.txt"
        g.write_text(serialize_graph(gen_family("cycle", 8)))
        code, out, _ = run(capsys, "exact", str(g))
        assert code == 0 and out.strip() == "k=4"

    def test_k50_one_color(self, capsys, tmp_path):
        # one search level per edge: 1 225 edges once overflowed the stack
        g = tmp_path / "k50.txt"
        g.write_text(serialize_graph(gen_family("complete", 50)))
        code, out, _ = run(capsys, "exact", str(g))
        assert code == 0 and out.strip() == "k=1"

    def test_path5_tree(self, capsys, tmp_path):
        g = tmp_path / "p5.txt"
        g.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
        code, out, _ = run(capsys, "exact", str(g))
        assert code == 0 and out.strip() == "k=4"

    def test_budget_exit(self, capsys, petersen_file):
        code, out, _ = run(capsys, "exact", petersen_file, "--node-budget", "10")
        assert code == 5 and out.strip() == "budget-exhausted at k=3"

    def test_too_few_colors_is_negative_verdict(self, capsys, tmp_path):
        g = tmp_path / "k2.txt"
        g.write_text("2 1\n0 1\n")
        code, out, err = run(capsys, "exact", str(g), "--max-colors", "0")
        assert code == 1 and err == ""
        assert out.strip() == "no rainbow-connected coloring with at most 0 colors"

    def test_cap_above_edge_count_is_no_cap(self, capsys, petersen_file):
        code, out, _ = run(capsys, "exact", petersen_file, "--max-colors", "20")
        assert code == 0 and out.strip() == "k=3"

    def test_disconnected_is_input_error(self, capsys, tmp_path):
        g = tmp_path / "two.txt"
        g.write_text("4 2\n0 1\n2 3\n")
        code, out, err = run(capsys, "exact", str(g))
        assert code == 2 and out == ""
        assert err.strip() == "error: rc_exact requires a connected graph"

    def test_negative_budget_is_input_error(self, capsys, petersen_file):
        code, out, err = run(capsys, "exact", petersen_file, "--node-budget", "-1")
        assert code == 2 and out == "" and "node_budget" in err

    def test_coloring_written_and_checks(self, capsys, petersen_file, tmp_path):
        cpath = tmp_path / "col.txt"
        code, out, _ = run(capsys, "exact", petersen_file, "-o", str(cpath))
        assert code == 0 and out.strip() == "k=3"
        code, _, _ = run(capsys, "check", petersen_file, str(cpath))
        assert code == 0


class TestQueries:
    def test_kappa(self, capsys, petersen_file):
        code, out, _ = run(capsys, "kappa", petersen_file)
        assert code == 0 and out.strip() == "3"

    def test_kappa_one_vertex(self, capsys, tmp_path):
        # like construct's "connectivity 0 < 3" for the same graph
        g = tmp_path / "k1.txt"
        g.write_text("1 0\n")
        code, out, _ = run(capsys, "kappa", str(g))
        assert code == 0 and out.strip() == "0"

    def test_kappa_refuses_isolated_vertices(self, capsys, tmp_path):
        g = tmp_path / "empty4.txt"
        g.write_text("4 0\n")
        code, out, err = run(capsys, "kappa", str(g))
        assert code == 2 and out == "" and "touch no edge" in err

    def test_fan_k4(self, capsys, tmp_path):
        g = tmp_path / "k4.txt"
        g.write_text(serialize_graph(gen_family("complete", 4)))
        code, out, _ = run(capsys, "fan", str(g), "0", "1", "2", "3", "-k", "3")
        assert code == 0
        assert out.splitlines() == ["0 1", "0 2", "0 3"]

    def test_fan_insufficient(self, capsys, c5_file):
        code, out, _ = run(capsys, "fan", c5_file, "0", "2", "3", "4", "-k", "3")
        assert code == 1 and out.strip() == "insufficient"

    @pytest.mark.parametrize("x,targets", [("99", ["1", "2", "3"]), ("-1", ["5", "6", "7"])])
    def test_fan_source_out_of_range(self, capsys, petersen_file, x, targets):
        code, out, err = run(capsys, "fan", petersen_file, x, *targets)
        assert code == 2 and out == "" and "vertex out of range" in err


class TestBench:
    def test_directory_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "k4.txt").write_text(serialize_graph(gen_family("complete", 4)))
        (corpus / "w6.txt").write_text(serialize_graph(gen_family("wheel", 6)))
        report = tmp_path / "report.csv"
        code, _, err = run(capsys, "bench", "--corpus", str(corpus),
                           "--exact-max-n", "6", "--out", str(report))
        assert code == 0 and "bench ok: 2 graphs" in err
        lines = report.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].startswith("k4,4,6,3,2,3,1,True")

    def test_tree_rejected_at_gate(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "tree.txt").write_text("4 3\n0 1\n1 2\n2 3\n")
        code, _, err = run(capsys, "bench", "--corpus", str(corpus))
        assert code == 3 and "tree" in err

    def test_exact_skipped_below_threshold(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "k4.txt").write_text(serialize_graph(gen_family("complete", 4)))
        report = tmp_path / "report.csv"
        code, _, _ = run(capsys, "bench", "--corpus", str(corpus),
                         "--exact-max-n", "0", "--out", str(report))
        assert code == 0
        assert report.read_text().splitlines()[1].split(",")[6] == "skipped"

    def test_empty_corpus_dir(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", "--corpus", str(tmp_path))
        assert code == 2 and "no *.txt" in err

    def test_exact_above_constructive_exits_4(self, capsys, tmp_path, monkeypatch):
        # an exact answer above the construction's color total is a bug in
        # one of them: bench stops at that graph with exit 4
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "k4.txt").write_text(serialize_graph(gen_family("complete", 4)))
        monkeypatch.setattr(cli, "rc_exact", lambda g: (3, None))
        code, out, err = run(capsys, "bench", "--corpus", str(corpus))
        assert (code, out) == (4, "")
        assert err == "error: corpus graph k4: exact 3 exceeds constructive 2\n"

    def test_node_budget_is_a_usage_error(self, capsys):
        # bench runs the exact solver with its default budget; only exact
        # takes --node-budget
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--node-budget", "5"])
        assert exc.value.code == 2
        assert "--node-budget" in capsys.readouterr().err

    def test_builtin_corpus(self, capsys):
        code, out, err = run(capsys, "bench", "--exact-max-n", "0")
        lines = out.splitlines()
        assert code == 0 and "bench ok: 24 graphs" in err
        assert lines[0] == ",".join(CSV_HEADER) and len(lines) == 1 + 24
        assert all(line.split(",")[6:8] == ["skipped", "True"] for line in lines[1:])

    def test_malformed_corpus_file(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "k4.txt").write_text(serialize_graph(gen_family("complete", 4)))
        (corpus / "broken.txt").write_text("3 1\n0 7\n")
        code, out, err = run(capsys, "bench", "--corpus", str(corpus))
        assert code == 2 and out == "" and "corpus graph broken" in err


class TestModuleEntry:
    """`python -m rcbound` passes main's return value out as the exit code."""

    @staticmethod
    def run_module(*argv, cwd):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "rcbound", *argv], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=60)

    def test_gen_petersen(self, tmp_path):
        proc = self.run_module("gen", "petersen", cwd=tmp_path)
        assert proc.returncode == 0 and proc.stdout.splitlines()[0] == "10 15"

    def test_malformed_file(self, tmp_path):
        (tmp_path / "bad.txt").write_text("3 1\n0 7\n")
        proc = self.run_module("construct", "bad.txt", cwd=tmp_path)
        assert proc.returncode == 2 and proc.stderr.startswith("error:")

    def test_cycle_construct(self, tmp_path):
        (tmp_path / "c6.txt").write_text(serialize_graph(gen_family("cycle", 6)))
        proc = self.run_module("construct", "c6.txt", cwd=tmp_path)
        assert proc.returncode == 3 and proc.stderr.startswith("error:")
