import csv
import math
from pathlib import Path

import numpy as np
import pytest

from polarq.channels import BAWGN
from polarq.cli import build_parser, main, read_code_file, write_code_file
from polarq.codec import PolarCode
from polarq.density_evolution import choose_info_set, synthesize
from polarq.quantizer import QuantizerSpec, quantize_density


def run(*argv):
    return main(list(argv))


class TestBoundsCommand:
    def test_bsc_golden_rows(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--channel", "bsc:0.11", "--n", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,L_n,U_n"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert float(rows[0][1]) == pytest.approx(-0.36155902777296125, abs=1e-9)
        assert float(rows[2][2]) == pytest.approx(0.49841803498405287, abs=1e-9)

    def test_bec_constant_rows(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--channel", "bec:0.5", "--n", "6", "--out", str(out)) == 0
        for line in out.read_text().splitlines()[1:]:
            _, lo, up = line.split(",")
            assert float(lo) == pytest.approx(0.5, abs=1e-12)
            assert float(up) == pytest.approx(0.5, abs=1e-12)

    def test_triple_spec_equals_bsc(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("bounds", "--channel", "bsc:0.11", "--n", "4", "--out", str(a)) == 0
        assert run("bounds", "--channel", "triple:0.89,0,0.11", "--n", "4", "--out", str(b)) == 0
        assert a.read_text() == b.read_text()

    def test_parse_error_no_output(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        for argv in (("bounds", "--channel", "bsc:0.8", "--n", "4"),
                     ("curve", "--family", "bsc", "--points", "1", "--n", "-1"),
                     ("curve", "--family", "universal", "--points", "1", "--n", "4",
                      "--e-grid", "0")):
            assert run(*argv, "--out", str(out)) == 2
            assert not out.exists()
            assert "polarq: error" in capsys.readouterr().err

    def test_ceiling_error(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--channel", "bsc:0.11", "--n", "30", "--out", str(out)) == 2
        assert not out.exists()

    def test_ceiling_checked_before_bracketing(self, tmp_path, capsys, monkeypatch):
        from polarq import bounds
        calls = []
        double_level = bounds._double_level

        def counted(*args):
            calls.append(1)
            return double_level(*args)

        monkeypatch.setattr(bounds, "_double_level", counted)
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--channel", "bsc:0.11", "--n", "23", "--tol", "1e-12",
                   "--out", str(out)) == 2
        assert "enumeration ceiling" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_tol_truncates_series(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--channel", "bec:0.5", "--n", "10", "--tol", "1e-6",
                   "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2  # header + level 0

    def test_tol_walks_the_levels_once(self, tmp_path, monkeypatch):
        from polarq import bounds
        states = []
        double_level = bounds._double_level

        def counted(p, e, m):
            states.append(p.size)
            return double_level(p, e, m)

        monkeypatch.setattr(bounds, "_double_level", counted)
        doubled = []
        for tol in (None, "0.01"):
            out = tmp_path / f"bounds_{tol}.csv"
            extra = () if tol is None else ("--tol", tol)
            assert run("bounds", "--channel", "bsc:0.11", "--n", "12", *extra,
                       "--out", str(out)) == 0
            doubled.append(sum(states))
            states.clear()
        assert doubled == [(1 << 12) - 1] * 2

    def test_tol_series_is_a_prefix_of_the_full_series(self, tmp_path):
        from polarq.bounds import bounds_series
        from polarq.channels import parse_channel
        series = bounds_series(parse_channel("bsc:0.11").triple(), 12)
        gaps = series.upper - series.lower
        tol = float(gaps[8])
        assert np.all(gaps[:8] > tol)
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        assert run("bounds", "--channel", "bsc:0.11", "--n", "12", "--out", str(full)) == 0
        assert run("bounds", "--channel", "bsc:0.11", "--n", "12", "--tol", repr(tol),
                   "--out", str(cut)) == 0
        assert cut.read_text().splitlines() == full.read_text().splitlines()[:10]

    def test_nonpositive_tol_rejected_before_doubling(self, tmp_path, capsys, monkeypatch):
        from polarq import bounds
        calls = []
        monkeypatch.setattr(bounds, "_double_level", lambda *args: calls.append(1))
        out = tmp_path / "bounds.csv"
        for tol in ("0", "-0.1", "nan"):
            assert run("bounds", "--channel", "bsc:0.11", "--n", "12", "--tol", tol,
                       "--out", str(out)) == 2
            assert "tol must be positive" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


class TestCurveCommand:
    def test_bec_identity(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("curve", "--family", "bec", "--points", "5", "--n", "6",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "capacity,lower,upper,n"
        for line in lines[1:]:
            cap, lo, up, n = line.split(",")
            assert float(lo) == pytest.approx(float(cap), abs=1e-11)
            assert float(up) == pytest.approx(float(cap), abs=1e-11)
            assert n == "6"


class TestConstructCommand:
    def test_bec_half_rate_n1(self, tmp_path):
        out = tmp_path / "code.txt"
        assert run("construct", "--channel", "bec:0.5", "--quantizer", "q:sign",
                   "--n", "1", "--rate", "0.5", "--out", str(out)) == 0
        code, meta = read_code_file(str(out))
        assert sorted(code.info_set) == [1]
        assert meta == {"n": "1", "k": "1", "channel": "bec:0.5", "quantizer": "q:sign"}

    def test_rate_extremes(self, tmp_path):
        out = tmp_path / "code.txt"
        assert run("construct", "--channel", "bec:0.5", "--quantizer", "q:sign",
                   "--n", "3", "--rate", "1", "--out", str(out)) == 0
        code, _ = read_code_file(str(out))
        assert sorted(code.info_set) == list(range(8))
        assert run("construct", "--channel", "bec:0.5", "--quantizer", "q:sign",
                   "--n", "3", "--rate", "0", "--out", str(out)) == 0
        code, _ = read_code_file(str(out))
        assert sorted(code.info_set) == []

    def test_quantized_construction(self, tmp_path):
        out = tmp_path / "code.txt"
        assert run("construct", "--channel", "bsc:0.11", "--quantizer",
                   "q:delta=1,M=8", "--n", "4", "--rate", "0.25",
                   "--out", str(out)) == 0
        code, _ = read_code_file(str(out))
        assert len(code.info_set) == 4

    def test_non_integral_rate(self, tmp_path):
        out = tmp_path / "code.txt"
        assert run("construct", "--channel", "bec:0.5", "--quantizer", "q:sign",
                   "--n", "2", "--rate", "0.3", "--out", str(out)) == 2
        assert not out.exists()

    def test_negative_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        assert run("construct", "--channel", "bsc:0.11", "--quantizer", "q:sign",
                   "--n", "-1", "--rate", "0.5", "--out", str(out)) == 2
        assert not out.exists()
        assert "n must be nonnegative" in capsys.readouterr().err

    def test_library_and_cli_construct_from_one_bawgn_law(self, tmp_path):
        # BAWGN at capacity 1/2; a grid other than the CLI's moves indices 0 and 36
        sigma, spec = 0.9786941246157008, QuantizerSpec(delta=1.0, m_sat=8.0)
        argv = ["construct", "--channel", f"bawgn:{sigma!r}", "--quantizer", "q:delta=1,M=8",
                "--n", "8", "--rate", "0.91796875"]
        out = tmp_path / "code.txt"
        assert run(*argv, "--out", str(out)) == 0
        code, _ = read_code_file(str(out))
        family = synthesize(quantize_density(BAWGN(sigma).llr_density(), spec), 8, spec)
        assert code.info_set == frozenset(int(i) for i in choose_info_set(family, 235))
        for flag, value in (("--grid", "4001"), ("--span", "40")):
            gone = tmp_path / f"{flag[2:]}.txt"
            assert run(*argv, flag, value, "--out", str(gone)) == 2
            assert not gone.exists()


class TestSimulateCommand:
    def _construct(self, tmp_path, channel="bec:0.5", n=4, rate=0.5):
        code = tmp_path / "code.txt"
        assert run("construct", "--channel", channel, "--quantizer", "q:sign",
                   "--n", str(n), "--rate", str(rate), "--out", str(code)) == 0
        return code

    def test_noiseless(self, tmp_path):
        code = self._construct(tmp_path)
        out = tmp_path / "sim.csv"
        assert run("simulate", "--code", str(code), "--channel", "bec:0",
                   "--decoder", "erasure", "--trials", "100", "--seed", "0",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "decoder,channel,n,rate,trials,seed,block_errors,bler,ci95"
        fields = lines[1].split(",")
        assert fields[0] == "erasure" and fields[6] == "0" and fields[7] == "0"

    def test_same_seed_identical_rows_and_append(self, tmp_path):
        code = self._construct(tmp_path)
        out = tmp_path / "sim.csv"
        for _ in range(2):
            assert run("simulate", "--code", str(code), "--channel", "bec:0.5",
                       "--decoder", "erasure", "--trials", "400", "--seed", "7",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == lines[2]

    def test_erasure_equals_exact_on_bec(self, tmp_path):
        code = self._construct(tmp_path, n=5)
        rows = []
        for decoder in ("erasure", "exact"):
            out = tmp_path / f"{decoder}.csv"
            assert run("simulate", "--code", str(code), "--channel", "bec:0.5",
                       "--decoder", decoder, "--trials", "500", "--seed", "21",
                       "--out", str(out)) == 0
            rows.append(out.read_text().splitlines()[1].split(","))
        assert rows[0][6] == rows[1][6]  # identical block error counts

    def test_threads_flag_does_not_change_output(self, tmp_path):
        code = self._construct(tmp_path, channel="bsc:0.11", n=6)
        texts = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            out = tmp_path / name
            assert run("simulate", "--code", str(code), "--channel", "bsc:0.11",
                       "--decoder", "quantized", "--quantizer", "q:delta=0.5,M=6",
                       "--trials", "9000", "--seed", "2", "--threads", str(threads),
                       "--out", str(out)) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_refuses_to_append_under_a_foreign_header(self, tmp_path):
        code = self._construct(tmp_path)
        out = tmp_path / "sim.csv"
        out.write_text("something,else\n1,2\n")
        assert run("simulate", "--code", str(code), "--channel", "bec:0.5",
                   "--decoder", "erasure", "--trials", "10", "--seed", "0",
                   "--out", str(out)) == 2
        assert out.read_text() == "something,else\n1,2\n"

    def test_quantizer_label_is_one_field(self, tmp_path):
        code = self._construct(tmp_path)
        out = tmp_path / "sim.csv"
        assert run("simulate", "--code", str(code), "--channel", "bec:0.5",
                   "--decoder", "quantized", "--quantizer", "q:delta=1,M=8",
                   "--trials", "10", "--seed", "0", "--out", str(out)) == 0
        header, row = csv.reader(out.read_text().splitlines())
        assert len(row) == len(header) == 9
        assert row[0] == "q:delta=1,M=8" and row[1] == "bec:0.5"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        code = self._construct(tmp_path)
        out = tmp_path / "sim.csv"
        assert run("simulate", "--code", str(code), "--channel", "bec:0.5",
                   "--decoder", "erasure", "--trials", "10", "--seed", "0",
                   "--threads", threads, "--out", str(out)) == 2
        assert not out.exists()

    def test_quantized_requires_quantizer(self, tmp_path):
        code = self._construct(tmp_path)
        out = tmp_path / "sim.csv"
        assert run("simulate", "--code", str(code), "--channel", "bec:0.5",
                   "--decoder", "quantized", "--trials", "10", "--seed", "0",
                   "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("decoder", ["exact", "erasure"])
    def test_quantizer_only_with_quantized_decoder(self, tmp_path, capsys, decoder):
        code = self._construct(tmp_path)
        out = tmp_path / "sim.csv"
        assert run("simulate", "--code", str(code), "--channel", "bec:0.5",
                   "--decoder", decoder, "--quantizer", "q:delta=1,M=8",
                   "--trials", "10", "--seed", "0", "--out", str(out)) == 2
        assert "polarq: error" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_bec_three_levels_match_exact_decoder(self, tmp_path):
        # the three-level decoder is exact on the erasure channel, so its
        # achievable rate equals the one from the classical erasure
        # recursion computed here as an oracle
        out = tmp_path / "sweep.csv"
        assert run("sweep-q", "--channel", "bec:0.5", "--q-sizes", "3",
                   "--n", "8", "--target-sum", "1e-2", "--out", str(out)) == 0
        row = out.read_text().splitlines()[1].split(",")
        k_cli = int(row[6])

        z = np.array([0.5])
        for _ in range(8):
            z = np.concatenate([1 - (1 - z) ** 2, z ** 2])
        perr = np.sort(z / 2)
        k_oracle = int(np.searchsorted(np.cumsum(perr), 1e-2, side="right"))
        assert k_cli == k_oracle

    def test_header_records_rule(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep-q", "--channel", "bsc:0.11", "--q-sizes", "3,5",
                   "--n", "6", "--target-sum", "1e-2", "--m-sat", "8",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,log2_q,delta,m_sat,n,target_sum,k,rate,capacity_gap"
        assert lines[1].split(",")[2] == "sign"
        assert lines[2].split(",")[2] == "4"

    def test_alphabet_sweep_golden_k(self, tmp_path):
        # criterion 7's sweep; its k per alphabet must not move with the
        # order in which density evolution sums its terms
        out = tmp_path / "sweep.csv"
        assert run("sweep-q", "--channel", "bsc:0.11", "--q-sizes", "3,5,9,17,33",
                   "--n", "10", "--target-sum", "1e-3", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(int(r[0]), int(r[6])) for r in rows] == [
            (3, 188), (5, 188), (9, 239), (17, 264), (33, 264)]

    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_nonfinite_target_rejected(self, tmp_path, capsys, target):
        out = tmp_path / "sweep.csv"
        assert run("sweep-q", "--channel", "bsc:0.11", "--q-sizes", "5",
                   "--n", "4", "--target-sum", target, "--out", str(out)) == 2
        assert "target must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_even_size_rejected(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep-q", "--channel", "bsc:0.11", "--q-sizes", "4",
                   "--n", "4", "--target-sum", "1e-2", "--out", str(out)) == 2
        assert not out.exists()


class TestCodeFileRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "code.txt"
        code = PolarCode(n=3, info_set=frozenset({1, 5, 7}))
        write_code_file(str(path), code, "bsc:0.11", "q:sign")
        loaded, meta = read_code_file(str(path))
        assert loaded == code
        assert meta["channel"] == "bsc:0.11"

    def test_rejects_repeated_index(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("polarq-code v1 n=2 k=2 channel=bsc:0.11 quantizer=q:sign\n1\n1\n")
        with pytest.raises(ValueError, match="distinct"):
            read_code_file(str(path))
        out = tmp_path / "sim.csv"
        assert run("simulate", "--code", str(path), "--channel", "bsc:0.11",
                   "--decoder", "erasure", "--trials", "10", "--seed", "0",
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            read_code_file(str(path))


def test_parser_requires_command(capsys):
    assert main([]) != 0
