"""End-to-end command line behavior: output, determinism, exit codes."""

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import stackspt
from stackspt import cli
from stackspt.errors import ValidationError
from stackspt.instance import (
    Edge,
    Fixed,
    Instance,
    Priceable,
    PriceFunction,
    parse_instance,
    serialize_instance,
)
from stackspt.oracle import build_oracle
from stackspt.rational import format_scalar, parse_scalar
from stackspt.shortest import naive_revenue
from stackspt.solver import VerifyReport


def breakpoint_fixture() -> Instance:
    edges = (
        Edge(0, 1, Fixed(1)),
        Edge(1, 2, Priceable(1)),
        Edge(0, 2, Fixed(10)),
    )
    return Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))


def two_edge_fixture() -> Instance:
    edges = (
        Edge(0, 1, Fixed(2)),
        Edge(1, 2, Priceable(1)),
        Edge(2, 3, Fixed(1)),
        Edge(1, 3, Priceable(2)),
        Edge(0, 2, Fixed(9)),
        Edge(0, 3, Fixed(10)),
    )
    return Instance(n=4, root=0, edges=edges, demand=(1, 1, 1, 1))


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "two_edge.txt"
    path.write_text(serialize_instance(two_edge_fixture()))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic_for_fixed_seed(self, capsys):
        code1, out1, _ = run(capsys, "gen", "--n", "15", "--m", "30", "--k", "3", "--seed", "42")
        code2, out2, _ = run(capsys, "gen", "--n", "15", "--m", "30", "--k", "3", "--seed", "42")
        assert code1 == code2 == 0
        assert out1 == out2
        inst = parse_instance(out1)
        assert (inst.n, inst.m, inst.k) == (15, 30, 3)

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "gen", "--n", "15", "--m", "30", "--k", "3", "--seed", "1")
        _, out2, _ = run(capsys, "gen", "--n", "15", "--m", "30", "--k", "3", "--seed", "2")
        assert out1 != out2

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "inst.txt"
        code, out, _ = run(
            capsys, "gen", "--n", "6", "--m", "9", "--k", "1", "--seed", "0",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert parse_instance(out_path.read_text()).n == 6

    def test_zero_priceable_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "6", "--m", "9", "--k", "0", "--seed", "0")
        assert code == 2
        assert "error:" in err

    def test_infeasible_shape_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "10", "--m", "9", "--k", "3", "--seed", "0")
        assert code == 2
        assert "do not fit" in err

    def test_vertex_cap_is_usage_error(self, capsys, monkeypatch):
        import stackspt.instance as mod

        # verify --random draws n from [3, --n-max], so a cap of 2 makes n = 3 certain
        monkeypatch.setattr(mod, "MAX_VERTICES", 2)
        assert mod.random_instance(2, 1, 0, seed=0).n == 2
        message = "n must be <= MAX_VERTICES = 2, got 3"
        code, out, err = run(capsys, "gen", "--n", "3", "--m", "4", "--k", "1", "--seed", "0")
        assert code == 2 and out == "" and message in err
        code, out, err = run(capsys, "verify", "--random", "--n-max", "3", "--seed", "0")
        assert code == 2 and out == "" and message in err

    def test_edge_cap_is_usage_error(self, capsys, monkeypatch):
        import stackspt.instance as mod

        assert mod.MAX_EDGES == 4 * mod.MAX_VERTICES
        monkeypatch.setattr(mod, "MAX_EDGES", 8)
        assert mod.random_instance(3, 8, 1, seed=0).m == 8
        message = "m must be <= MAX_EDGES = 8, got 9"
        with pytest.raises(mod.ValidationError, match=message):
            mod.random_instance(3, 9, 1, seed=0)
        code, out, err = run(capsys, "gen", "--n", "3", "--m", "9", "--k", "1", "--seed", "0")
        assert code == 2 and out == "" and message in err


class TestEval:
    def test_matches_direct_computation(self, capsys, instance_file):
        inst = two_edge_fixture()
        for prices in [(3, 4), (1, 1), (100, 100)]:
            want = naive_revenue(inst, prices)
            code, out, _ = run(
                capsys, "eval", "--instance", instance_file,
                "--prices", f"{prices[0]},{prices[1]}",
            )
            assert code == 0
            assert out.splitlines()[0] == str(want)

    def test_huge_prices_give_zero(self, capsys, instance_file):
        code, out, _ = run(capsys, "eval", "--instance", instance_file, "--prices", "500 500")
        assert code == 0
        assert out == "0\n"

    def test_fractional_prices(self, capsys, instance_file):
        code, out, _ = run(capsys, "eval", "--instance", instance_file, "--prices", "7/2,4")
        want = naive_revenue(two_edge_fixture(), (Fraction(7, 2), 4))
        assert code == 0
        assert out.splitlines()[0] == str(want)

    def test_naive_flag_prints_both_lines(self, capsys, instance_file):
        code, out, err = run(
            capsys, "eval", "--instance", instance_file, "--prices", "3 4", "--naive"
        )
        assert code == 0
        value, check = out.splitlines()
        assert check == f"naive {value}"
        assert err == ""

    def test_naive_mismatch_exits_one(self, capsys, instance_file, monkeypatch):
        monkeypatch.setattr(cli, "naive_revenue", lambda inst, p: 10**9)
        code, _, err = run(
            capsys, "eval", "--instance", instance_file, "--prices", "3 4", "--naive"
        )
        assert code == 1
        assert "MISMATCH" in err

    def test_wrong_arity_is_usage_error(self, capsys, instance_file):
        code, _, err = run(capsys, "eval", "--instance", instance_file, "--prices", "3")
        assert code == 2
        assert "expected 2 prices" in err

    def test_nonpositive_price_is_usage_error(self, capsys, instance_file):
        code, _, _ = run(capsys, "eval", "--instance", instance_file, "--prices", "0,4")
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "eval", "--instance", str(tmp_path / "nope.txt"), "--prices", "1"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("prices", ["3,4", "7/2,4", "1,1", "5/3,2/7", "500,500"])
    def test_explain_rows_sum_to_revenue(self, capsys, instance_file, prices):
        code, out, _ = run(
            capsys, "eval", "--instance", instance_file, "--prices", prices, "--explain"
        )
        assert code == 0
        value, *rows = out.splitlines()
        total, labels = 0, []
        for row in rows:
            edge, label, price, p, served, w = row.split()
            assert (edge, price, served) == ("edge", "price", "served")
            labels.append(int(label))
            total += parse_scalar(p) * parse_scalar(w)
        assert labels == sorted(labels)
        assert value == format_scalar(total)
        pf = PriceFunction.parse(prices, 2)
        assert total == naive_revenue(two_edge_fixture(), pf)
        assert len(rows) == len(build_oracle(two_edge_fixture()).reduced_tree_for(pf).edges)

    def test_oversized_header_is_usage_error(self, capsys, tmp_path, monkeypatch):
        import stackspt.instance as mod

        monkeypatch.setattr(mod, "MAX_VERTICES", 3)
        path = tmp_path / "big.txt"
        path.write_text(serialize_instance(two_edge_fixture()))  # n = 4
        code, out, err = run(capsys, "eval", "--instance", str(path), "--prices", "3,4")
        assert code == 2 and out == ""
        assert "MAX_VERTICES = 3" in err
        code, _, err = run(capsys, "bench", "--sizes", "2^2")
        assert code == 2 and "cap 3" in err

    def test_range_tree_past_the_size_cap_is_usage_error(self, capsys, instance_file, monkeypatch):
        import stackspt.rangetree as mod

        monkeypatch.setattr(mod, "MAX_TREE_BYTES", 1)  # the 2-axis trees of prices 1,1 take 2
        want = ("edge 1 over edge set (1, 2): range tree of d=2 axes over D=2 distinct points "
                "would take 2 bytes as bitsets or 24 as wavelet levels, past the cap of 1 bytes")
        oracle = build_oracle(two_edge_fixture())
        with pytest.raises(ValidationError) as exc:
            oracle.revenue((1, 1))
        assert str(exc.value) == want
        assert oracle.revenue((100, 100)) == 0  # no tree needed, so none refused
        code, out, err = run(capsys, "eval", "--instance", instance_file, "--prices", "1,1")
        assert code == 2 and out == "" and err == f"error: {want}\n"
        monkeypatch.setattr(mod, "MAX_TREE_BYTES", 2)
        assert oracle.revenue((1, 1)) == naive_revenue(two_edge_fixture(), (1, 1))

    def test_single_priceable_edge_instance(self, capsys, tmp_path):
        path = tmp_path / "bp.txt"
        path.write_text(serialize_instance(breakpoint_fixture()))
        code, out, _ = run(capsys, "eval", "--instance", str(path), "--prices", "9", "--naive")
        assert code == 0
        assert out == "9\nnaive 9\n"


class TestLargeAnswers:
    """Answers past ``sys.get_int_max_str_digits()`` (4300 by default) print
    in full; parsing keeps the limit."""

    DEMAND = 10**3000 - 1  # 3000 digits
    DETOUR = 10**2001

    def write(self, tmp_path, demand_text):
        path = tmp_path / "big.txt"
        path.write_text(
            f"stackspt 1\ngraph 2 2 1\nroot 0\ndemand 1 {demand_text}\n"
            f"edge 0 1 P 1\nedge 0 1 F {format_scalar(self.DETOUR)}\n"
        )
        return str(path)

    def test_eval_explain_and_solve_print_exact_values(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = self.write(tmp_path, "9" * 3000)
        price = 10**2000 - 1
        code, out, err = run(capsys, "eval", "--instance", path, "--prices", "9" * 2000)
        assert code == 0 and err == ""
        assert len(out) > limit and Decimal(out) == self.DEMAND * price
        code, out, err = run(
            capsys, "eval", "--instance", path, "--prices", "9" * 2000, "--explain"
        )
        revenue, row = out.splitlines()
        assert code == 0 and Decimal(revenue) == self.DEMAND * price
        assert row == f"edge 1 price {'9' * 2000} served {'9' * 3000}"
        code, out, err = run(capsys, "solve", "--instance", path)
        prices, revenue, evaluations = out.splitlines()
        assert code == 0 and prices == f"prices 1{'0' * 2001}"
        assert Decimal(revenue.split()[1]) == self.DEMAND * self.DETOUR
        assert evaluations == "evaluations 1"
        assert sys.get_int_max_str_digits() == limit

    def test_parsing_keeps_the_limit(self, capsys, tmp_path):
        path = self.write(tmp_path, "9" * 5000)
        code, out, err = run(capsys, "eval", "--instance", path, "--prices", "5")
        assert code == 2 and out == "" and "line 4: bad demand" in err


class TestSolve:
    def test_breakpoint_instance_solved_exactly(self, capsys, tmp_path):
        path = tmp_path / "bp.txt"
        path.write_text(serialize_instance(breakpoint_fixture()))
        code, out, _ = run(capsys, "solve", "--instance", str(path))
        assert code == 0
        assert out == "prices 9\nrevenue 9\nevaluations 1\n"

    def test_parallel_option_is_rejected(self, capsys, instance_file):
        code, out, _ = run(capsys, "solve", "--instance", instance_file, "--parallel", "8")
        assert code == 2 and out == ""

    def test_explicit_vector_candidates(self, capsys, instance_file, tmp_path):
        cand = tmp_path / "cands.txt"
        cand.write_text("# best of three\nvector 3 4\nvector 2 2\nvector 6 7\n")
        code, out, _ = run(
            capsys, "solve", "--instance", instance_file, "--candidates", str(cand)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "evaluations 3"
        inst = two_edge_fixture()
        best = max(
            naive_revenue(inst, v) for v in [(3, 4), (2, 2), (6, 7)]
        )
        assert lines[1] == f"revenue {best}"

    def test_malformed_candidate_file(self, capsys, instance_file, tmp_path):
        cand = tmp_path / "cands.txt"
        cand.write_text("vector 3 4\ncand 1 5\n")
        code, _, err = run(
            capsys, "solve", "--instance", instance_file, "--candidates", str(cand)
        )
        assert code == 2
        assert "cannot mix" in err


class TestVerify:
    def test_single_instance_passes(self, capsys, instance_file):
        code, out, _ = run(
            capsys, "verify", "--instance", instance_file, "--trials", "40", "--seed", "3"
        )
        assert code == 0
        assert "40/40 ok" in out
        assert "all checks passed" in out

    def test_random_fleet_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--random", "--instances", "3", "--trials", "20", "--seed", "11"
        )
        assert code == 0
        assert out.count("/20 ok") == 3

    def test_csv_deterministic_across_runs(self, capsys):
        argv = ["verify", "--random", "--instances", "2", "--trials", "15",
                "--seed", "7", "--csv"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0] == "instance,trial,ok,fast,naive"
        assert len(lines) == 1 + 2 * 15
        assert all(row.split(",")[2] == "1" for row in lines[1:])

    def test_failure_exits_one_with_counterexample(self, capsys, instance_file, monkeypatch):
        real = cli.verify_oracle

        def rigged(inst, trials, seed):
            report = real(inst, trials, seed=seed)
            failure = type(
                "F", (), {"__str__": lambda self: "trial 0: revenue check failed (rigged)"}
            )()
            return VerifyReport(
                trials=report.trials, failures=(failure,), rows=report.rows
            )

        monkeypatch.setattr(cli, "verify_oracle", rigged)
        code, _, err = run(
            capsys, "verify", "--instance", instance_file, "--trials", "5", "--seed", "0"
        )
        assert code == 1
        assert "revenue check failed" in err

    def test_fleet_generates_each_instance_just_before_its_check(self, capsys, monkeypatch):
        calls = []
        real_gen, real_verify = cli.random_instance, cli.verify_oracle

        def gen(*args, **kwargs):
            calls.append("gen")
            return real_gen(*args, **kwargs)

        def verify(inst, trials, seed):
            calls.append("verify")
            return real_verify(inst, trials, seed=seed)

        monkeypatch.setattr(cli, "random_instance", gen)
        monkeypatch.setattr(cli, "verify_oracle", verify)
        code, out, _ = run(
            capsys, "verify", "--random", "--instances", "4", "--trials", "2", "--seed", "5", "--csv"
        )
        assert code == 0 and len(out.splitlines()) == 1 + 4 * 2
        assert calls == ["gen", "verify"] * 4

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--n-max", "3", "--cost-max", "0"], "cost_max must be >= 1, got 0"),
            (["--n-max", "4"], "n must be <= MAX_VERTICES = 3, got 4"),
            (["--instances", "0"], "need --instances >= 1"),
        ],
    )
    def test_fleet_arguments_checked_before_the_header(self, capsys, monkeypatch, flags, message):
        import stackspt.instance as mod

        monkeypatch.setattr(mod, "MAX_VERTICES", 3)
        code, out, err = run(capsys, "verify", "--random", "--csv", *flags)
        assert code == 2 and out == "" and message in err

    def test_instance_and_random_together_rejected(self, capsys, instance_file):
        code, _, _ = run(capsys, "verify", "--instance", instance_file, "--random")
        assert code == 2

    def test_k_max_cap_follows_the_instance_cap(self, capsys, monkeypatch):
        import stackspt.instance as mod

        monkeypatch.setattr(mod, "MAX_PRICEABLE_EDGES", 3)
        code, out, err = run(capsys, "verify", "--random", "--k-max", "4", "--seed", "0")
        assert code == 2 and out == ""
        assert "2 <= --k-max <= 3" in err

    def test_neither_source_rejected(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 2

    def test_zero_trials_rejected(self, capsys, monkeypatch):
        def generate(*_args, **_kwargs):
            raise AssertionError("an instance was generated before the trials were checked")

        monkeypatch.setattr(cli, "random_instance", generate)
        code, out, err = run(capsys, "verify", "--random", "--trials", "0")
        assert code == 2 and out == ""
        assert err == "error: trials must be an int >= 1, got 0\n"


class TestBench:
    def test_csv_shape_and_sizes(self, capsys):
        code, out, err = run(
            capsys, "bench", "--sizes", "2^6,100", "--queries", "8", "--seed", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,k,build_s,fast_us,naive_us,speedup"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:3] == ["64", "256", "2"]
        second = lines[2].split(",")
        assert second[:3] == ["100", "400", "2"]
        assert err != ""  # progress goes to stderr

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_no_priceable_edge_is_usage_error(self, capsys, k):
        code, out, err = run(capsys, "bench", "--sizes", "2^4", "--k", k)
        assert (code, out) == (2, "")
        assert err == "error: bench requires at least one priceable edge (--k >= 1)\n"

    def test_bad_sizes_are_usage_errors(self, capsys):
        for sizes in ["", "abc", "0", "2^"]:
            code, _, _ = run(capsys, "bench", "--sizes", sizes)
            assert code == 2


class TestInputFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--instance", "{bad}", "--prices", "1,1"),
            ("solve", "--instance", "{good}", "--candidates", "{bad}"),
            ("verify", "--instance", "{bad}"),
        ],
    )
    def test_non_utf8_file_is_usage_error(self, capsys, instance_file, tmp_path, argv):
        data = b"\xff" + random.Random(0).randbytes(512)
        with pytest.raises(UnicodeDecodeError):
            data.decode("utf-8")
        bad = tmp_path / "binary.bin"
        bad.write_bytes(data)
        code, out, err = run(capsys, *(a.format(bad=bad, good=instance_file) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(bad) in err and "UTF-8" in err
        assert "Traceback" not in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "gen", "--bogus")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_subcommand_help_exits_zero(self, capsys):
        for name in ["gen", "eval", "solve", "verify", "bench"]:
            assert run(capsys, name, "--help")[0] == 0


class TestEntryPoints:
    def module_run(self, *argv):
        """``python -m stackspt`` in a child process, on this checkout's package."""
        src = os.path.dirname(os.path.dirname(stackspt.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "stackspt", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_module_eval_prints_the_revenue(self, instance_file):
        done = self.module_run("eval", "--instance", instance_file, "--prices", "3,4")
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == f"{naive_revenue(two_edge_fixture(), (3, 4))}\n"

    def test_module_eval_of_a_bad_price_is_usage_error(self, instance_file):
        done = self.module_run("eval", "--instance", instance_file, "--prices", "3,0")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error:")

    @pytest.mark.parametrize("prices,code", [("3,4", 0), ("3", 2)])
    def test_entry_exits_with_the_code_of_main(self, capsys, monkeypatch, instance_file, prices, code):
        monkeypatch.setattr(sys, "argv", ["stackspt", "eval", "--instance", instance_file, "--prices", prices])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code
        assert (capsys.readouterr().out != "") == (code == 0)
