"""Reports, profiles, and the command-line interface."""

import json
import math
import subprocess
import sys

import pytest

from hcscount import MotifSpec, count_by_pivot, from_edges
from hcscount.cli import main
from hcscount.report import exact_ratio_str, hgp_profile
from conftest import REF7_EDGES


@pytest.fixture
def ref7_file(tmp_path):
    p = tmp_path / "ref7.txt"
    p.write_text("# reference graph\n" +
                 "".join(f"{u} {v}\n" for u, v in REF7_EDGES))
    return str(p)


class TestExitCodes:
    def test_ok(self, ref7_file):
        assert main(["count", "--input", ref7_file, "--motif", "plex",
                     "--s", "1", "--q", "4"]) == 0

    def test_invalid_spec_is_2(self, ref7_file, capsys):
        rc = main(["count", "--input", ref7_file, "--motif", "dclique",
                   "--s", "1", "--q", "2"])
        assert rc == 2
        assert "q - 2 >= s" in capsys.readouterr().err

    def test_plex_gate_accepts_boundary(self, ref7_file):
        assert main(["count", "--input", ref7_file, "--motif", "plex",
                     "--s", "1", "--q", "3"]) == 0

    def test_missing_file_is_1(self, tmp_path):
        rc = main(["count", "--input", str(tmp_path / "absent.txt"),
                   "--motif", "plex", "--s", "1", "--q", "3"])
        assert rc == 1

    def test_parse_error_is_1(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        for bad in ("oops here", "1_0 2", "\uff13 4"):
            p.write_text(f"0 1\n{bad}\n", encoding="utf-8")
            rc = main(["count", "--input", str(p), "--motif", "clique",
                       "--s", "0", "--q", "3"])
            assert rc == 1, bad
            assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("vid", [2**63, -2**63 - 1], ids=["above", "below"])
    def test_vertex_id_outside_int64_is_1(self, tmp_path, capsys, vid):
        p = tmp_path / "big.txt"
        p.write_text(f"0 1\n{2**63 - 1} {-2**63}\n1 {vid}\n")
        rc = main(["count", "--input", str(p), "--motif", "clique",
                   "--s", "0", "--q", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"input error: line 3: vertex id outside the int64 range in ['1', '{vid}']"]

    def test_bad_hcs_threads_is_2(self, ref7_file, capsys, monkeypatch):
        monkeypatch.setenv("HCS_THREADS", "abc")
        rc = main(["count", "--input", ref7_file, "--motif", "plex",
                   "--s", "1", "--q", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "HCS_THREADS" in line] == [
            "invalid motif or run parameters: HCS_THREADS must be an integer, got 'abc'"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv_extra,env,message", [
        (["--threads", "-3"], None, "the thread count must be at least 1, got -3"),
        (["--threads", "0"], None, "the thread count must be at least 1, got 0"),
        ([], "-5", "HCS_THREADS must be at least 1, got -5"),
    ], ids=["flag-negative", "flag-zero", "env-negative"])
    def test_thread_count_below_one_is_2(self, ref7_file, tmp_path, capsys, monkeypatch,
                                         argv_extra, env, message):
        if env is not None:
            monkeypatch.setenv("HCS_THREADS", env)
        out = tmp_path / "r.json"
        rc = main(["count", "--input", ref7_file, "--motif", "plex", "--s", "1",
                   "--q", "4", "--json", str(out)] + argv_extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"invalid motif or run parameters: {message}" in err.splitlines()
        assert "Traceback" not in err
        assert not out.exists()

    def test_local_column_sum_mismatch_is_3(self, ref7_file, tmp_path, capsys,
                                            monkeypatch):
        import hcscount.cli as cli

        def skewed(*args, **kwargs):
            run = count_by_pivot(*args, **kwargs)
            run.local.per_vertex[0] += 1
            return run

        monkeypatch.setattr(cli, "count_by_pivot", skewed)
        out = tmp_path / "verts.tsv"
        rc = main(["local", "--input", ref7_file, "--motif", "plex", "--s", "1",
                   "--q", "4", "--local", "vertex", "--output", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "column sum 101 != sum_q q*count 100" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("skew,message", [
        ("inflate", "edge-count column sum 200 outside [100, 150]"),
        ("clear", "edge-count column sum 0 outside [100, 150]"),
    ])
    def test_local_edge_sum_out_of_bounds_is_3(self, ref7_file, tmp_path, capsys,
                                               monkeypatch, skew, message):
        import hcscount.cli as cli

        def skewed(*args, **kwargs):
            run = count_by_pivot(*args, **kwargs)
            per_edge = run.local.per_edge
            if skew == "clear":
                per_edge.clear()
            else:
                # 25 plexes of 4 vertices: between 25*(6-2) and 25*6 edges
                first = next(iter(per_edge))
                per_edge[first] += 200 - sum(per_edge.values())
            return run

        monkeypatch.setattr(cli, "count_by_pivot", skewed)
        out = tmp_path / "edges.tsv"
        rc = main(["local", "--input", ref7_file, "--motif", "plex", "--s", "1",
                   "--q", "4", "--local", "edge", "--output", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"verification mismatch: {message}" in err.splitlines()
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,extra", [
        ("local", ["--local", "vertex", "--output"]),
        ("profile", ["--json"]),
    ])
    def test_method_outside_count_is_2(self, ref7_file, tmp_path, capsys, command, extra):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", ref7_file, "--motif", "plex", "--s", "1",
                  "--q-range", "3:5", "--method", "list"] + extra + [str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,argv,engine", [
        ("count", ["--q", "4", "--json"], "count_by_pivot"),
        ("count", ["--q", "4", "--method", "list", "--json"], "count_by_listing"),
        ("local", ["--q", "4", "--local", "vertex", "--output"], "count_by_pivot"),
        ("local", ["--q", "4", "--local", "vertex", "--output", "{ok}", "--json"],
         "count_by_pivot"),
        ("profile", ["--q-range", "3:5", "--json"], "hgp_profile"),
    ])
    def test_unwritable_output_is_1_before_counting(self, ref7_file, tmp_path, capsys,
                                                    monkeypatch, command, argv, engine):
        import hcscount.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the engine ran before the output path was checked")

        monkeypatch.setattr(cli, engine, never)
        ok = tmp_path / "ok.tsv"
        bad = tmp_path / "no-such-dir" / "out"
        argv = [a.format(ok=ok) for a in argv]
        rc = main([command, "--input", ref7_file, "--motif", "plex", "--s", "1"]
                  + argv + [str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"output error: cannot write {bad}" in err
        assert "Traceback" not in err
        assert not ok.exists()

    def test_output_check_keeps_existing_files(self, tmp_path, capsys):
        """A parse error after the check leaves an existing output file as it
        was and creates no new one."""
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\noops here\n")
        kept = tmp_path / "kept.json"
        kept.write_text("previous report\n")
        fresh = tmp_path / "fresh.tsv"
        rc = main(["local", "--input", str(bad), "--motif", "clique", "--s", "0",
                   "--q", "3", "--local", "vertex", "--output", str(fresh),
                   "--json", str(kept)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err
        assert kept.read_text() == "previous report\n"
        assert not fresh.exists()

    def test_verify_pass_is_0(self):
        assert main(["verify", "--seeds", "1", "--q-max", "4"]) == 0

    def test_verify_fault_is_3(self, capsys):
        rc = main(["verify", "--seeds", "1", "--q-max", "5",
                   "--inject-fault", "prune-bound"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "minimized" in out

    def test_overflow_fault_is_4(self):
        rc = main(["verify", "--seeds", "1", "--q-max", "5",
                   "--inject-fault", "overflow"])
        assert rc == 4

    @pytest.mark.parametrize("extra, reason", [
        (["--q-max", "1"], "no admissible spec"),
        (["--q-max", "0"], "no admissible spec"),
        (["--s-max", "-1"], "no admissible spec"),
        (["--seeds", "-2"], "at least 1 seed"),
        (["--seeds", "0"], "at least 1 seed"),
        (["--input", None], "the oracle takes at most 400"),
    ])
    def test_verify_checking_nothing_is_2(self, extra, reason, tmp_path, capsys):
        # each of these once crashed or printed PASS after 0 spec runs
        if None in extra:
            big = tmp_path / "path401.txt"
            big.write_text("".join(f"{i} {i + 1}\n" for i in range(400)))
            extra = [str(big) if x is None else x for x in extra]
        assert main(["verify"] + extra) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        lines = [ln for ln in err.splitlines()
                 if ln.startswith("invalid motif or run parameters: ")]
        assert len(lines) == 1 and reason in lines[0]


class TestCountCommand:
    def test_json_report_counts_are_decimal_strings(self, ref7_file, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["count", "--input", ref7_file, "--motif", "dclique",
                   "--s", "1", "--q-range", "4:5", "--json", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["counts"] == {"4": "20", "5": "1"}
        assert rep["load_stats"]["n"] == 7
        assert rep["load_stats"]["arcs"] == 32
        assert rep["spec"] == {"family": "dclique", "s": 1, "q_low": 4, "q_high": 5}

    def test_list_method(self, ref7_file, capsys):
        rc = main(["count", "--input", ref7_file, "--motif", "plex",
                   "--s", "1", "--q", "5", "--method", "list"])
        assert rc == 0
        assert "q=5: 9" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["clique", "plex"])
    @pytest.mark.parametrize("prune", [[], ["--no-prune"]])
    def test_q1_stats_agree_across_methods(self, family, prune, tmp_path):
        """A q = 1 listing reports the candidates and time of a real run."""
        inp = tmp_path / "g.txt"
        inp.write_text("0 1\n1 2\n0 2\n2 3\n")  # a triangle with a tail
        reps = {}
        for method in ("pivot", "list"):
            out = tmp_path / f"{method}.json"
            assert main(["count", "--input", str(inp), "--motif", family, "--s", "0",
                         "--q", "1", "--method", method, "--json", str(out)] + prune) == 0
            reps[method] = json.loads(out.read_text())
        piv, lst = reps["pivot"], reps["list"]
        assert piv["counts"] == lst["counts"] == {"1": "4"}
        for key in ("candidates_before_reduction", "candidates_after_reduction",
                    "reduction_rate"):
            assert piv["stats"][key] == lst["stats"][key], key
        assert lst["stats"]["candidates_before_reduction"] == 4  # m
        assert lst["stats"]["reduction_rate"] == 0.0
        assert lst["wall_time_s"] > 0

    def test_list_method_rejects_range(self, ref7_file, capsys, monkeypatch):
        """Before the input is loaded."""
        import hcscount.cli as cli

        def never(path):
            raise AssertionError("the input was loaded before the spec was checked")

        monkeypatch.setattr(cli, "_load", never)
        rc = main(["count", "--input", ref7_file, "--motif", "plex",
                   "--s", "1", "--q-range", "3:5", "--method", "list"])
        assert rc == 2
        assert "--method list counts a single size" in capsys.readouterr().err

    def test_no_prune_matches(self, ref7_file, capsys):
        rc = main(["count", "--input", ref7_file, "--motif", "plex",
                   "--s", "1", "--q", "4", "--no-prune"])
        assert rc == 0
        assert "q=4: 25" in capsys.readouterr().out

    def test_deterministic_across_thread_counts(self, ref7_file, tmp_path):
        outs = []
        for t in ("1", "2"):
            out = tmp_path / f"r{t}.json"
            main(["count", "--input", ref7_file, "--motif", "plex", "--s", "1",
                  "--q-range", "3:6", "--threads", t, "--json", str(out)])
            outs.append(json.loads(out.read_text())["counts"])
        assert outs[0] == outs[1]

    def test_console_entry_point(self, ref7_file):
        r = subprocess.run([sys.executable, "-m", "hcscount.cli", "count",
                            "--input", ref7_file, "--motif", "clique",
                            "--s", "0", "--q", "4"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert "q=4: 2" in r.stdout

    def test_package_entry_point(self, ref7_file, tmp_path):
        """python -m hcscount runs the same CLI and passes its exit code."""
        base = [sys.executable, "-m", "hcscount", "count", "--motif", "clique",
                "--s", "0", "--q", "4", "--input"]
        r = subprocess.run(base + [ref7_file], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert "q=4: 2" in r.stdout
        r = subprocess.run(base + [str(tmp_path / "absent.txt")], capture_output=True,
                           text=True)
        assert r.returncode == 1
        assert "input error" in r.stderr


class TestLocalCommand:
    def test_k4_edge_mode(self, tmp_path):
        p = tmp_path / "k4.txt"
        p.write_text("".join(f"{u} {v}\n" for u in range(4) for v in range(u + 1, 4)))
        out = tmp_path / "edges.tsv"
        rc = main(["local", "--input", str(p), "--motif", "clique", "--s", "0",
                   "--q", "3", "--local", "edge", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert all(line.split("\t")[2] == "2" for line in lines)
        # u < v in original ids
        for line in lines:
            u, v, _ = line.split("\t")
            assert int(u) < int(v)

    def test_vertex_mode_column_sum(self, ref7_file, tmp_path):
        out = tmp_path / "verts.tsv"
        rc = main(["local", "--input", ref7_file, "--motif", "plex", "--s", "1",
                   "--q", "4", "--local", "vertex", "--output", str(out)])
        assert rc == 0
        total = sum(int(line.split("\t")[1]) for line in out.read_text().splitlines())
        assert total == 4 * 25

    def test_edge_export_round_trips_through_oracle(self, ref7_file, tmp_path):
        from hcscount import brute_force_count, load_edge_list
        out = tmp_path / "edges.tsv"
        main(["local", "--input", ref7_file, "--motif", "dclique", "--s", "1",
              "--q", "4", "--local", "edge", "--output", str(out)])
        g = load_edge_list(ref7_file)
        oracle = brute_force_count(g, MotifSpec.single("dclique", 1, 4))
        got = {}
        for line in out.read_text().splitlines():
            u, v, c = line.split("\t")
            got[(int(u), int(v))] = int(c)
        want = {(int(g.orig_ids[u]), int(g.orig_ids[v])): c
                for (u, v), c in oracle.per_edge.items() if c}
        assert got == want


class TestProfileCommand:
    def test_complete_graph_all_ratios_one(self, tmp_path):
        p = tmp_path / "k7.txt"
        p.write_text("".join(f"{u} {v}\n" for u in range(7) for v in range(u + 1, 7)))
        out = tmp_path / "prof.json"
        rc = main(["profile", "--input", str(p), "--motif", "plex", "--s", "1",
                   "--q-range", "3:6", "--json", str(out)])
        assert rc == 0
        prof = json.loads(out.read_text())
        assert all(r == "1" for r in prof["ratios"].values())

    def test_zero_hcs_count_gives_null(self, ref7_file, tmp_path):
        out = tmp_path / "prof.json"
        rc = main(["profile", "--input", ref7_file, "--motif", "plex", "--s", "1",
                   "--q-range", "5:7", "--json", str(out)])
        assert rc == 0
        prof = json.loads(out.read_text())
        assert prof["ratios"]["7"] is None
        assert prof["hcs_counts"]["7"] == "0"

    def test_ratios_in_unit_interval(self):
        g = from_edges(REF7_EDGES)
        prof = hgp_profile(g, "dclique", 1, 3, 6)
        for q in range(3, 7):
            r = prof.ratio(q)
            if r is not None:
                assert 0.0 <= float(r) <= 1.0
            assert prof.clique_counts.get(q, 0) <= prof.hcs_counts.get(q, 0)

    def test_exact_ratio_rendering(self):
        assert exact_ratio_str(1, 3).startswith("0.3333333333")
        assert exact_ratio_str(2, 2) == "1"


class TestDecimalSerialization:
    def test_huge_counts_round_trip(self, tmp_path):
        # K_80, all clique sizes: counts are C(80, q), far beyond 2^64 for mid q
        p = tmp_path / "k80.txt"
        p.write_text("".join(f"{u} {v}\n" for u in range(80) for v in range(u + 1, 80)))
        out = tmp_path / "r.json"
        rc = main(["count", "--input", str(p), "--motif", "clique", "--s", "0",
                   "--q-range", "1:80", "--json", str(out), "--threads", "1"])
        assert rc == 0
        rep = json.loads(out.read_text())
        for q in range(1, 81):
            assert int(rep["counts"][str(q)]) == math.comb(80, q)
        assert int(rep["counts"]["40"]) > 2**64
