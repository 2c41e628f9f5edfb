"""Benchmark driver: size parsing, record arithmetic, deterministic content."""

import pytest

from stackspt.bench import BenchRecord, format_csv, parse_sizes, run_bench
from stackspt.errors import ValidationError


class TestParseSizes:
    def test_powers_and_plain(self):
        assert parse_sizes("2^10,2^11") == [1024, 2048]
        assert parse_sizes("1024 2048") == [1024, 2048]
        assert parse_sizes("2^3, 10,12") == [8, 10, 12]

    @pytest.mark.parametrize("bad", ["", "abc", "2^", "^4", "1", "0", "-8", "2^-1", "-2^2", "-4^2"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_sizes(bad)


    def test_cap_on_sizes(self, monkeypatch):
        import stackspt.instance as mod

        assert parse_sizes("2^17") == [2**17]
        monkeypatch.setattr(mod, "MAX_VERTICES", 100)
        assert parse_sizes("2^6 100 10^2") == [64, 100, 100]
        for bad in ["2^7", "101", "3^5", "101^1", "2^4096", "-101^2"]:
            with pytest.raises(ValidationError) as err:
                parse_sizes(bad)
            assert "cap 100" in str(err.value)


class TestRecord:
    def test_speedup_and_row(self):
        rec = BenchRecord(n=64, m=256, k=2, build_s=0.01234567,
                          fast_us=10.4, naive_us=260.0, queries=8)
        assert rec.speedup == pytest.approx(25.0)
        assert rec.csv_row() == "64,256,2,0.012346,10,260,25.00"

    def test_csv_header(self):
        text = format_csv([])
        assert text == "n,m,k,build_s,fast_us,naive_us,speedup\n"


class TestRunBench:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            run_bench([4], k=14)  # m = 16 edges leave room for 13 priceable ones
        with pytest.raises(ValidationError):
            run_bench([64], queries=0)

    def test_single_priceable_edge_runs_the_oracle(self):
        (rec,) = run_bench([64], k=1, queries=6, seed=2)
        assert (rec.n, rec.k, rec.queries) == (64, 1, 6)

    def test_record_content_is_deterministic(self):
        a = run_bench([32, 64], k=2, queries=6, seed=5)
        b = run_bench([32, 64], k=2, queries=6, seed=5)
        for ra, rb in zip(a, b):
            assert (ra.n, ra.m, ra.k, ra.queries) == (rb.n, rb.m, rb.k, rb.queries)
        assert [r.n for r in a] == [32, 64]
        assert all(r.m == 4 * r.n for r in a)

    def test_fast_naive_disagreement_is_an_error(self, monkeypatch):
        import stackspt.bench

        real = stackspt.bench.naive_revenue
        monkeypatch.setattr(stackspt.bench, "naive_revenue", lambda inst, p: real(inst, p) + 1)
        with pytest.raises(ValidationError, match=r"^fast/naive disagreement at n=16, prices=\("):
            run_bench([16], k=2, queries=3, seed=1)

    def test_progress_callback_fires_per_size(self):
        lines = []
        run_bench([16, 32, 64], k=2, queries=4, seed=1, progress=lines.append)
        assert len(lines) == 3
        assert lines[0].startswith("n=16 ")
