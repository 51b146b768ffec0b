import decimal
import hashlib
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from stiefel_mcmc import cli, csvio
from stiefel_mcmc import eigenmodel as em
from stiefel_mcmc.errors import ParseError
from stiefel_mcmc.frames import random_uniform_frame


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def write_net_csv(path, codes):
    rows = []
    for row in codes:
        rows.append(",".join("NA" if v < 0 else str(int(v)) for v in row))
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture()
def net_file(tmp_path):
    rng = np.random.default_rng(0)
    u = random_uniform_frame(12, 2, rng)
    net = em.generate_network(-0.2, np.array([6.0, 3.0]), u, rng)
    path = tmp_path / "net.csv"
    write_net_csv(path, net.codes)
    return path


class TestParsers:
    def test_adjacency_example(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("NA,1,0\n1,NA,1\n0,1,NA\n")
        net = csvio.parse_adjacency(p)
        assert net.n == 3
        assert net.codes[0, 1] == 1 and net.codes[1, 2] == 1
        assert net.codes[0, 2] == 0

    def test_adjacency_bad_entry_names_cell(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("NA,1\n2,NA\n")
        with pytest.raises(ParseError, match=r"a\.csv:2.*field 1"):
            csvio.parse_adjacency(p)

    def test_header_row_skipped(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b,c\nNA,1,0\n1,NA,1\n0,1,NA\n")
        assert csvio.parse_adjacency(p).n == 3

    def test_ragged_row_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match=r"m\.csv:2"):
            csvio.read_matrix(p)

    def test_empty_field_is_missing(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,,3\n4,5,6\n")
        mat = csvio.read_matrix(p)
        assert np.isnan(mat[0, 1])

    @pytest.mark.parametrize("tok,value", [
        ("", np.nan), ("  ", np.nan), (" NA ", np.nan), ("nan", np.nan),
        ("NaN", np.nan), ("NAN", np.nan), ("inf", np.inf), ("-0.0", -0.0),
        ("1_000", 1000.0), (" 2.5 ", 2.5), ("0x10", None), ("N A", None)])
    def test_field_token_values(self, tok, value):
        # assert_equal holds NaN equal to NaN and tells -0.0 from 0.0
        if value is None:
            assert csvio._to_float(tok) is None
        else:
            np.testing.assert_equal(csvio._to_float(tok), value)

    @pytest.mark.parametrize("flag", ["--input", "--covariates"])
    def test_header_only_file_is_rejected(self, tmp_path, net_file, capsys, flag):
        # svd-fit's data file and eigen-fit's covariates, each a header
        # row and nothing else
        p = tmp_path / "header.csv"
        p.write_text("a,b,c\n")
        if flag == "--input":
            cmd = ["svd-fit", "--input", p, "--rank", 1]
        else:
            cmd = ["eigen-fit", "--input", net_file, "--covariates", p]
        out = tmp_path / "out"
        assert run_cli(*cmd, "--iters", 10, "--thin", 5, "--out-dir", out) == 2
        assert "header.csv: no data rows after header" in capsys.readouterr().err
        assert not out.exists()

    def test_covariate_row_count_checked(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("drug,smoke\n1,0\n0,1\n")
        names, table = csvio.parse_covariates(p, 2)
        assert names == ("drug", "smoke")
        with pytest.raises(ParseError):
            csvio.parse_covariates(p, 3)

    def test_covariate_header_width_checked(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("drug,smoke,alcohol\n1,0\n0,1\n")
        with pytest.raises(ParseError, match=r"x\.csv:1: the header has 3 names, "
                                             r"the rows 2 fields"):
            csvio.parse_covariates(p, 2)

    def test_covariate_default_names(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,0,NA\n0,1,1\n")
        names, table = csvio.parse_covariates(p, 2)
        assert names == ("x1", "x2", "x3")
        assert table.shape == (2, 3) and np.isnan(table[0, 2])

    def test_roundtrip_precision(self, tmp_path):
        vals = np.array([[np.pi, 1e-17, -3.0, 1.0 / 3.0]])
        p = tmp_path / "v.csv"
        csvio.write_matrix(p, vals)
        back = csvio.read_matrix(p)
        np.testing.assert_array_equal(back, vals)

    def test_writers_match_format_value_byte_for_byte(self, tmp_path, monkeypatch):
        # rows that orjson may print and rows that it may not, each compared
        # with the format_value join; the orjson calls are counted, so that
        # both paths are seen to run
        dumps = csvio.orjson.dumps
        calls = []
        monkeypatch.setattr(csvio.orjson, "dumps",
                            lambda *a, **kw: calls.append(1) or dumps(*a, **kw))
        p = tmp_path / "m.csv"

        def check(mat, orjson_rows=None):
            lines = [",".join(csvio.format_value(v) for v in row) for row in mat]
            header = [f"c{k}" for k in range(mat.shape[1])]
            del calls[:]
            csvio.write_matrix(p, mat, header=header)
            assert p.read_bytes() == ("\n".join([",".join(header)] + lines) + "\n").encode()
            if orjson_rows is not None:
                assert len(calls) == orjson_rows
            iters = range(5, 5 * mat.shape[0] + 1, 5)
            csvio.write_trace(p, header, iters, mat)
            trace = [f"{it},{line}" for it, line in zip(iters, lines)]
            assert p.read_bytes() == ("\n".join(
                [",".join(["iter"] + header)] + trace) + "\n").encode()

        # every row holds a NaN, an inf or a value outside ORJSON_RANGE
        check(np.array([[np.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308],
                        [1.7976931348623157e308, -1e300, np.pi, -1.0 / 3.0, 1e16],
                        [np.inf, -np.inf, 1e-17, 123456789.0, -2.0]]), 0)
        rng = np.random.default_rng(20)
        sign = rng.choice([-1.0, 1.0], (60, 8))
        wide = sign * 10.0 ** rng.uniform(-6, 18, (60, 8))
        check(wide)
        # rows within the range, as the fits write them: all through orjson
        inside = sign * 10.0 ** rng.uniform(-4, 16, (60, 8))
        check(inside, 60)
        check((1.0 + rng.random((30, 8))) * 10.0 ** rng.integers(-4, 16, (30, 1)), 30)
        # each side of both ends of the range, one value a row
        ends = [np.nextafter(e, to) for e in (1e-4, 1e16) for to in (0.0, np.inf)]
        ends += [1e-4, 1e16]
        check(np.array([[0.5, e, -e] for e in ends]), 3)
        # signed zeros, and NaN or an infinity among values within the range
        check(np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, np.nan, 2.0],
                        [1.0, np.inf, 2.0], [-np.inf, 0.5, 0.25]]), 2)
        # memory orders and strided views
        check(np.asfortranarray(inside), 60)
        check(inside.T, 8)
        check(inside[:, ::2], 60)
        check(inside[::-3, 1::3], 20)
        # int and float32 rows keep the repr join
        check(np.arange(-3, 3).reshape(2, 3), 0)
        check(np.array([[np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max]]), 0)
        check(np.vstack([inside[:4].astype(np.float32),
                         np.array([[np.nan] + [0.1] * 7], dtype=np.float32)]), 0)
        csvio.write_matrix(p, np.arange(-3, 3).reshape(2, 3))
        assert p.read_bytes() == b"-3,-2,-1\n0,1,2\n"

    def test_diagonal_ignored_regardless_of_content(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("7,1,0\n1,x,1\n0,1,NA\n")
        net = csvio.parse_adjacency(p)
        assert np.all(np.diag(net.codes) == -1)
        assert net.codes[0, 1] == 1

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # read without dropping the mark, "\ufeff1" is not a number, so the
        # first data row was taken for a header and dropped
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        np.testing.assert_array_equal(csvio.read_matrix(p), [[1.0, 2.0], [3.0, 4.0]])
        p.write_bytes(b"\xef\xbb\xbfNA,1,0\n1,NA,1\n0,1,NA\n")
        net = csvio.parse_adjacency(p)
        assert net.n == 3 and net.codes[0, 1] == 1 and net.codes[0, 2] == 0

    def test_malformed_number_in_the_first_row_is_a_parse_error(self, tmp_path):
        # "1\x1c" is not a number, but "2" is: the row is data, not a
        # header, and its bad field is reported instead of the row dropped
        p = tmp_path / "m.csv"
        p.write_text("1\x1c,2\n3,4\n")
        with pytest.raises(ParseError, match=r"m\.csv:1: field 1 is not numeric"):
            csvio.read_matrix(p)

    def test_text_on_the_diagonal_of_the_first_row_keeps_the_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("x,1,0\n1,NA,1\n0,1,NA\n")
        net = csvio.parse_adjacency(p)
        assert net.n == 3
        assert np.all(np.diag(net.codes) == -1)
        assert net.codes[0, 1] == 1 and net.codes[0, 2] == 0

    def test_text_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(ParseError, match=r"m\.csv: the file is not UTF-8"):
            csvio.read_matrix(p)

    @pytest.mark.parametrize("text", [
        "1,2\n3,4\n", "1,2\n\n3,4\n\n", "1,2\n   \n3,4\n", "1,2\n\t\n3,4\n",
        "1,NA\n3,4\n", "1,\n3,4\n", "1,2,\n3,4,\n", '1,"2"\n3,4\n',
        "a,b\n1,2\n", "# note\n1,2\n", "1,2\r\n3,4\r\n", "1,2\r3,4\r",
        "1,2,3\n", "1\n2\n3\n", "5", "1,2\n3\n", "1,2\n3,4,5\n", "1,2\n3,x\n",
        "\ufeff1,2\n3,4\n", "1_000,2\n3,4\n", "1\x1c,2\n3,4\n",
        "nan,NaN\ninf,-Infinity\n", " 1 ,\t2\n3,4\n", "", "\n\n", "NA\n",
        "1,2\n3,4\nNA,NA\n", "1e400,-0\n.5,5.\n", "-0,1", "1,-0", "-0e5,-0.0",
        "-1e-400,1e-400", "123456789012345678901234567890,1",
        "-9223372036854775809,9007199254740993", "1],[2", "[1,2]", "true,1",
        "01,2", "+1,2", "1E+05,1e-5", "1e-0,2"],
        ids=lambda text: repr(text)[1:-1])
    def test_read_matrix_agrees_with_the_full_parser(self, tmp_path, text):
        # the orjson fast path returns what the field-by-field parser
        # returns, or leaves the input to it and so raises its ParseError
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode())

        def outcome(read):
            try:
                return read()
            except ParseError as exc:
                return str(exc)
        fast = outcome(lambda: csvio.read_matrix(p))
        full = outcome(lambda: csvio._read_table(p, csvio._numeric_fault)[1])
        if isinstance(full, str):
            assert fast == full
        else:
            assert fast.shape == full.shape
            np.testing.assert_array_equal(fast, full)
            assert (np.signbit(fast) == np.signbit(full)).all()

    def test_orjson_reads_hard_tokens_bit_for_bit(self, tmp_path, monkeypatch):
        # the tokens on which a decimal-to-double conversion most often
        # errs, each compared bit for bit with float: repr of random bit
        # patterns, 17-25 significant digits over the whole exponent range
        # (those that overflow dropped), and the exact decimal halfway
        # point between neighbouring doubles, down into the subnormals
        rng = np.random.default_rng(25)
        bits = rng.integers(0, 2**64, 4000, dtype=np.uint64)
        tokens = [repr(x) for x in bits.view(np.float64).tolist() if np.isfinite(x)]
        for _ in range(4000):
            digits = "".join(map(str, rng.integers(0, 10, rng.integers(17, 26))))
            tokens.append(f"{rng.choice(['', '-'])}{rng.integers(1, 10)}.{digits[1:]}"
                          f"e{rng.integers(-330, 311)}")
        tokens = [tok for tok in tokens if np.isfinite(float(tok))]
        with decimal.localcontext(decimal.Context(prec=2000)):
            # positive doubles below the largest, whose neighbour is finite
            for x in rng.integers(0, 2**63 - 2**52 - 1, 4000,
                                  dtype=np.int64).view(np.float64).tolist():
                half = (decimal.Decimal(x) + decimal.Decimal(np.nextafter(x, np.inf))) / 2
                tokens.append(f"{rng.choice(['', '-'])}{half}")
        tokens = tokens[:len(tokens) // 10 * 10]
        assert len(tokens) >= 10_000
        p = tmp_path / "hard.csv"
        p.write_text("\n".join(",".join(tokens[k:k + 10])
                               for k in range(0, len(tokens), 10)) + "\n")
        monkeypatch.setattr(csvio, "_read_table", None)
        back = csvio.read_matrix(p).ravel()
        expected = np.array([float(tok) for tok in tokens])
        assert back.tobytes() == expected.tobytes()

    def test_large_shortest_repr_file_round_trips_bit_for_bit(self, tmp_path,
                                                               monkeypatch):
        rng = np.random.default_rng(23)
        mat = rng.standard_normal((1000, 300)) * 10.0 ** rng.uniform(-300, 300, (1000, 300))
        p = tmp_path / "big.csv"
        csvio.write_matrix(p, mat)
        # plain numbers take the fast path, so the full parser is not called
        monkeypatch.setattr(csvio, "_read_table", None)
        back = csvio.read_matrix(p)
        assert back.dtype == np.float64
        assert back.tobytes() == mat.tobytes()


class TestSvdSim:
    def test_dimensions_and_files(self, tmp_path):
        assert run_cli("svd-sim", "--out-dir", tmp_path, "--seed", 3) == 0
        y = csvio.read_matrix(tmp_path / "Y.csv")
        assert y.shape == (60, 40)
        d0 = csvio.read_matrix(tmp_path / "d0.csv")
        assert d0.shape == (1, 4)
        assert (tmp_path / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("svd-sim", "--out-dir", out, "--seed", 11) == 0
        for name in ("Y.csv", "M0.csv", "d0.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_rank_rejected(self, tmp_path):
        assert run_cli("svd-sim", "--rank-true", 0, "--out-dir", tmp_path) == 2

    def test_rejected_run_creates_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "D"
        assert run_cli("svd-sim", "--m", 3, "--n", 2, "--rank-true", 3,
                       "--out-dir", out) == 2
        assert "rank_true" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--m", "--n"])
    def test_nonpositive_size_is_named(self, tmp_path, capsys, flag):
        out = tmp_path / "D"
        assert run_cli("svd-sim", flag, 0, "--out-dir", out) == 2
        assert f"{flag[2:]} must be a positive integer, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestSvdFit:
    def test_small_run_outputs(self, tmp_path):
        assert run_cli("svd-sim", "--m", 15, "--n", 10, "--rank-true", 2,
                       "--out-dir", tmp_path, "--seed", 5) == 0
        assert run_cli("svd-fit", "--input", tmp_path / "Y.csv",
                       "--truth", tmp_path / "M0.csv", "--rank", 3,
                       "--iters", 20, "--thin", 5,
                       "--out-dir", tmp_path / "fit", "--seed", 5) == 0
        trace = (tmp_path / "fit" / "d_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,d_1,d_2,d_3"
        assert len(trace) == 5  # header + 4 saved rows
        summary = (tmp_path / "fit" / "summary.csv").read_text()
        assert "mse_mle" in summary and "mse_posterior_mean" in summary
        m_post = csvio.read_matrix(tmp_path / "fit" / "M_post_mean.csv")
        assert m_post.shape == (15, 10)

    def test_single_row_trace(self, tmp_path):
        run_cli("svd-sim", "--m", 12, "--n", 8, "--rank-true", 2,
                "--out-dir", tmp_path, "--seed", 1)
        assert run_cli("svd-fit", "--input", tmp_path / "Y.csv", "--rank", 2,
                       "--iters", 5, "--thin", 5,
                       "--out-dir", tmp_path / "fit", "--seed", 1) == 0
        trace = (tmp_path / "fit" / "d_trace.csv").read_text().splitlines()
        assert len(trace) == 2

    def test_manifest_and_info_line_report_frame_repairs(self, tmp_path, caplog):
        run_cli("svd-sim", "--m", 12, "--n", 8, "--rank-true", 2,
                "--out-dir", tmp_path, "--seed", 1)
        with caplog.at_level(logging.INFO, logger="stiefel_mcmc"):
            assert run_cli("svd-fit", "--input", tmp_path / "Y.csv", "--rank", 3,
                           "--iters", 20, "--thin", 5,
                           "--out-dir", tmp_path / "fit", "--seed", 1) == 0
        manifest = json.loads((tmp_path / "fit" / "manifest.json").read_text())
        assert manifest["frame_repairs"] == 0
        [line] = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.INFO and "Gibbs iterations" in r.getMessage()]
        assert line.startswith("chain 0: 20 Gibbs iterations in ")
        assert line.endswith(" iterations/s), frame_repairs 0")

    def test_no_truth_no_summary(self, tmp_path):
        run_cli("svd-sim", "--m", 12, "--n", 8, "--rank-true", 2,
                "--out-dir", tmp_path, "--seed", 1)
        assert run_cli("svd-fit", "--input", tmp_path / "Y.csv", "--rank", 2,
                       "--iters", 5, "--thin", 5,
                       "--out-dir", tmp_path / "fit", "--seed", 1) == 0
        assert not (tmp_path / "fit" / "summary.csv").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        assert run_cli("svd-fit", "--input", tmp_path / "nope.csv",
                       "--out-dir", tmp_path) == 3

    def test_unwritable_out_dir_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        assert run_cli("svd-sim", "--out-dir", blocker / "sub") == 3

    def test_missing_values_in_y_rejected(self, tmp_path):
        p = tmp_path / "Y.csv"
        p.write_text("1,NA\n2,3\n")
        assert run_cli("svd-fit", "--input", p, "--rank", 1, "--iters", 5,
                       "--thin", 5, "--out-dir", tmp_path / "fit") == 2

    def test_infinite_values_in_y_rejected(self, tmp_path, capsys):
        p = tmp_path / "Y.csv"
        p.write_text("1,inf\n2,3\n")
        assert run_cli("svd-fit", "--input", p, "--rank", 1, "--iters", 5,
                       "--thin", 5, "--out-dir", tmp_path / "fit") == 2
        assert "non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["1,0,0\n0,0,0\n0,0,0\n0,0,0\n",
                                      "2,1,0\n4,2,0\n6,3,0\n8,4,0\n"],
                             ids=["one_entry", "rank_one"])
    def test_exactly_low_rank_y_rejected(self, tmp_path, rows):
        # a rank-1 fit of rank-1 data leaves no residual; the noise variance
        # used to start at the smallest double, and the first column draw
        # either never returned or failed on non-finite MF parameters
        p = tmp_path / "Y.csv"
        p.write_text(rows)
        proc = subprocess.run(
            [sys.executable, "-m", "stiefel_mcmc.cli", "svd-fit",
             "--input", str(p), "--rank", "1", "--iters", "10", "--thin", "5",
             "--out-dir", str(tmp_path / "fit")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "rank-1 fit leaves no residual" in proc.stderr
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("fault,chains", [("shape", 1), ("missing", 1),
                                              ("shape", 2), ("missing", 2),
                                              ("absent", 1), ("absent", 2)])
    def test_bad_truth_rejected_before_any_output(self, tmp_path, capsys,
                                                  monkeypatch, fault, chains):
        # a truth of the wrong shape, with a missing entry, or no file at
        # all is rejected while the inputs are read, before any chain runs
        def no_chain(*args):
            raise AssertionError("a chain was started")
        monkeypatch.setattr(cli, "_fan_out", no_chain)
        run_cli("svd-sim", "--m", 12, "--n", 8, "--rank-true", 2,
                "--out-dir", tmp_path, "--seed", 1)
        m0 = csvio.read_matrix(tmp_path / "M0.csv")
        if fault == "shape":
            m0 = m0[:, :7]
        else:
            m0[3, 4] = np.nan
        truth = tmp_path / "bad_truth.csv"
        if fault != "absent":
            csvio.write_matrix(truth, m0)
        assert run_cli("svd-fit", "--input", tmp_path / "Y.csv", "--truth", truth,
                       "--rank", 2, "--iters", 5, "--thin", 5, "--chains", chains,
                       "--out-dir", tmp_path / "fit",
                       "--seed", 1) == (3 if fault == "absent" else 2)
        assert "bad_truth.csv" in capsys.readouterr().err
        assert [p for p in (tmp_path / "fit").rglob("*") if p.is_file()] == []
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("chains", [1, 2])
    def test_schedule_that_saves_no_draw_creates_no_out_dir(self, tmp_path,
                                                            capsys, chains):
        # the schedule is checked by the runner, inside the chain; the
        # out dir is made only with the first file written
        out = tmp_path / "fit"
        assert run_cli("svd-fit", "--input", small_y_file(tmp_path), "--rank", 2,
                       "--iters", 3, "--thin", 5, "--chains", chains,
                       "--out-dir", out) == 2
        assert "iters=3, burn=0, thin=5 saves no draw" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_under_a_regular_file_is_io_error(self, tmp_path):
        # the out dir is made at the first write, after the chain
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        assert run_cli("svd-fit", "--input", small_y_file(tmp_path), "--rank", 2,
                       "--iters", 5, "--thin", 5, "--out-dir", blocker / "sub") == 3

    def test_determinism(self, tmp_path):
        run_cli("svd-sim", "--m", 12, "--n", 8, "--rank-true", 2,
                "--out-dir", tmp_path, "--seed", 2)
        for sub in ("f1", "f2"):
            assert run_cli("svd-fit", "--input", tmp_path / "Y.csv",
                           "--rank", 2, "--iters", 30, "--thin", 3,
                           "--out-dir", tmp_path / sub, "--seed", 42) == 0
        assert ((tmp_path / "f1" / "d_trace.csv").read_bytes()
                == (tmp_path / "f2" / "d_trace.csv").read_bytes())
        assert ((tmp_path / "f1" / "M_post_mean.csv").read_bytes()
                == (tmp_path / "f2" / "M_post_mean.csv").read_bytes())


class TestEigenFit:
    def test_outputs(self, tmp_path, net_file):
        cov = tmp_path / "x.csv"
        cov.write_text("drug,smoke\n" + "\n".join("1,0" for _ in range(12)) + "\n")
        assert run_cli("eigen-fit", "--input", net_file, "--covariates", cov,
                       "--iters", 60, "--burn", 10, "--thin", 5,
                       "--out-dir", tmp_path / "out", "--seed", 9) == 0
        pos = (tmp_path / "out" / "positions.csv").read_text().splitlines()
        assert pos[0] == "node,u_1,u_2,u_1_scaled,u_2_scaled,drug,smoke"
        assert len(pos) == 13
        trace = (tmp_path / "out" / "lambda_theta_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,lambda_1,lambda_2,theta"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in trace[1:]])
        assert np.all(rows[:, 1] <= rows[:, 2])  # sorted lambdas
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["t2_lambda"] == 12.0  # defaults to n
        assert manifest["backend"] == "pure"
        sweeps = manifest["u_sweeps"]
        assert set(sweeps) == {"proposals_per_draw_mean", "proposals_per_draw_max",
                               "shift_fallbacks", "frame_repairs"}
        assert 1.0 <= sweeps["proposals_per_draw_mean"] <= sweeps["proposals_per_draw_max"]
        assert sweeps["frame_repairs"] == 0

    def test_asymmetric_adjacency_names_pair(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("NA,1,0\n0,NA,1\n0,1,NA\n")
        assert run_cli("eigen-fit", "--input", p, "--out-dir", tmp_path) == 2
        assert "(1,2)" in capsys.readouterr().err

    def test_covariate_mismatch_rejected(self, tmp_path, net_file):
        cov = tmp_path / "x.csv"
        cov.write_text("1,0\n0,1\n")
        assert run_cli("eigen-fit", "--input", net_file, "--covariates", cov,
                       "--iters", 20, "--burn", 5, "--thin", 5,
                       "--out-dir", tmp_path / "out") == 2

    def test_determinism(self, tmp_path, net_file):
        for sub in ("e1", "e2"):
            assert run_cli("eigen-fit", "--input", net_file, "--iters", 40,
                           "--burn", 5, "--thin", 5, "--seed", 4,
                           "--out-dir", tmp_path / sub) == 0
        for name in ("lambda_theta_trace.csv", "M_bar.csv", "positions.csv"):
            assert ((tmp_path / "e1" / name).read_bytes()
                    == (tmp_path / "e2" / name).read_bytes())

    def test_logs_chain_rate_at_info(self, tmp_path, net_file, caplog):
        with caplog.at_level(logging.INFO, logger="stiefel_mcmc"):
            assert run_cli("eigen-fit", "--input", net_file, "--iters", 20,
                           "--burn", 5, "--thin", 5, "--seed", 4,
                           "--out-dir", tmp_path / "out") == 0
        [line] = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.INFO and "Gibbs iterations" in r.getMessage()]
        assert line.startswith("chain 0: 20 Gibbs iterations in ")
        assert " iterations/s), proposals_per_draw_mean " in line
        assert line.endswith(", frame_repairs 0")


    def test_schedule_that_saves_no_draw_rejected(self, tmp_path, net_file,
                                                  capsys, deadline):
        # no multiple of 10 lies in 101..105: rejected before the chain runs
        with deadline(10.0):
            code = run_cli("eigen-fit", "--input", net_file, "--iters", 105,
                           "--burn", 100, "--thin", 10,
                           "--out-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "iters=105, burn=100, thin=10 saves no draw" in err
        assert not (tmp_path / "out" / "lambda_theta_trace.csv").exists()

    def test_trace_rows_are_the_saved_iterations(self, tmp_path, net_file):
        assert run_cli("eigen-fit", "--input", net_file, "--iters", 40,
                       "--burn", 7, "--thin", 4, "--seed", 4,
                       "--out-dir", tmp_path / "out") == 0
        trace = (tmp_path / "out" / "lambda_theta_trace.csv").read_text()
        iters = [int(line.split(",")[0]) for line in trace.splitlines()[1:]]
        assert iters == list(range(8, 41, 4))


class TestChains:
    def test_parallel_chains_write_subdirs(self, tmp_path, net_file):
        assert run_cli("eigen-fit", "--input", net_file, "--iters", 30,
                       "--burn", 5, "--thin", 5, "--chains", 2, "--seed", 8,
                       "--out-dir", tmp_path / "multi") == 0
        for k in (0, 1):
            sub = tmp_path / "multi" / f"chain_{k:02d}"
            assert (sub / "lambda_theta_trace.csv").exists()
            assert (sub / "manifest.json").exists()
        t0 = (tmp_path / "multi" / "chain_00" / "lambda_theta_trace.csv").read_bytes()
        t1 = (tmp_path / "multi" / "chain_01" / "lambda_theta_trace.csv").read_bytes()
        assert t0 != t1  # independent streams

    def test_chain_workers_run_single_threaded_blas(self, tmp_path,
                                                    monkeypatch):
        # the workers see every BLAS thread variable at 1, and the parent's
        # environment, set or unset, is as it was
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        run_cli("svd-sim", "--m", 12, "--n", 8, "--rank-true", 2,
                "--out-dir", tmp_path, "--seed", 3)
        assert run_cli("svd-fit", "--input", tmp_path / "Y.csv", "--rank", 2,
                       "--iters", 10, "--thin", 5, "--chains", 2, "--seed", 3,
                       "--out-dir", tmp_path / "multi") == 0
        assert dict(os.environ) == before
        for k in (0, 1):
            manifest = json.loads(
                (tmp_path / "multi" / f"chain_{k:02d}" / "manifest.json").read_text())
            assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                                "OMP_NUM_THREADS": "1",
                                                "MKL_NUM_THREADS": "1"}

    def test_chain_zero_matches_single_run(self, tmp_path, net_file):
        run_cli("eigen-fit", "--input", net_file, "--iters", 30, "--burn", 5,
                "--thin", 5, "--chains", 2, "--seed", 8,
                "--out-dir", tmp_path / "multi")
        run_cli("eigen-fit", "--input", net_file, "--iters", 30, "--burn", 5,
                "--thin", 5, "--seed", 8, "--out-dir", tmp_path / "single")
        assert ((tmp_path / "multi" / "chain_00" / "lambda_theta_trace.csv").read_bytes()
                == (tmp_path / "single" / "lambda_theta_trace.csv").read_bytes())

    def test_truth_is_parsed_once_in_the_parent(self, tmp_path, monkeypatch):
        # the chains get the parsed truth from the parent, which reads
        # each input once however many chains run
        run_cli("svd-sim", "--m", 12, "--n", 8, "--rank-true", 2,
                "--out-dir", tmp_path, "--seed", 3)
        read = csvio.read_matrix
        paths = []
        monkeypatch.setattr(csvio, "read_matrix",
                            lambda path: paths.append(str(path)) or read(path))
        assert run_cli("svd-fit", "--input", tmp_path / "Y.csv",
                       "--truth", tmp_path / "M0.csv", "--rank", 2,
                       "--iters", 10, "--thin", 5, "--chains", 2, "--seed", 3,
                       "--out-dir", tmp_path / "multi") == 0
        assert paths == [str(tmp_path / "Y.csv"), str(tmp_path / "M0.csv")]
        for k in (0, 1):
            assert (tmp_path / "multi" / f"chain_{k:02d}" / "summary.csv").exists()

    @pytest.mark.parametrize("chains", [0, -2])
    def test_nonpositive_chains_rejected(self, tmp_path, net_file, capsys,
                                         chains):
        assert run_cli("eigen-fit", "--input", net_file, "--iters", 20,
                       "--burn", 5, "--thin", 5, "--chains", chains,
                       "--out-dir", tmp_path / "out") == 2
        assert "--chains must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def small_y_file(tmp_path):
    path = tmp_path / "Y.csv"
    csvio.write_matrix(path, np.random.default_rng(0).standard_normal((8, 5)))
    return path


@pytest.mark.parametrize("subcommand", ["svd-sim", "svd-fit", "eigen-fit"])
def test_negative_seed_is_a_validation_error(tmp_path, net_file, subcommand):
    # NumPy's seed sequence takes no negative seed; the run names the
    # seed and exits 2 instead of ending in NumPy's traceback
    inputs = {"svd-sim": [],
              "svd-fit": ["--input", small_y_file(tmp_path), "--rank", 2],
              "eigen-fit": ["--input", net_file, "--burn", 5]}[subcommand]
    proc = subprocess.run(
        [sys.executable, "-m", "stiefel_mcmc.cli", subcommand,
         *map(str, inputs), "--seed", "-1", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "seed must be a non-negative integer, got -1" in proc.stderr


def test_unknown_stream_label_rejected():
    with pytest.raises(KeyError, match="unknown stream label 'svd-mle'"):
        cli.derive_rng(0, "svd-mle")


@pytest.mark.parametrize("subcommand,flag,field", [
    ("svd-fit", "--nu0", "nu0"), ("svd-fit", "--s20", "s20"),
    ("svd-fit", "--eta0", "eta0"), ("svd-fit", "--t20", "t20"),
    ("eigen-fit", "--t2-lambda", "t2_lambda"),
    ("eigen-fit", "--t2-theta", "t2_theta")])
def test_infinite_hyperparameter_is_a_validation_error(tmp_path, net_file,
                                                       capsys, subcommand,
                                                       flag, field):
    data = small_y_file(tmp_path) if subcommand == "svd-fit" else net_file
    assert run_cli(subcommand, "--input", data, flag, "inf", "--iters", 10,
                   "--thin", 5, "--out-dir", tmp_path / "out") == 2
    assert f"{field} must be finite and strictly positive" in capsys.readouterr().err
    assert list((tmp_path / "out").rglob("*.csv")) == []


SYMMETRIC_NET = "NA,1,0\n1,NA,1\n0,1,NA\n"
ASYMMETRIC_NET = "NA,1,0\n0,NA,1\n0,1,NA\n"


@pytest.mark.parametrize("net,args,message", [
    (None, ["--seed", -1], "seed must be a non-negative integer"),
    (None, ["--nu0", "inf", "--chains", 2], "nu0 must be finite"),
    (None, ["--rank", 6], "--rank must lie in 1..5 for the 8x5 data matrix, got 6"),
    (SYMMETRIC_NET, ["--t2-theta", "inf"], "t2_theta must be finite"),
    (SYMMETRIC_NET, ["--rank", 5],
     "--rank must lie in 1..3 for the network of 3 nodes, got 5"),
    (ASYMMETRIC_NET, ["--chains", 2], "(1,2)"),
    (SYMMETRIC_NET, ["--burn", 10, "--chains", 2], "got 10/10/5"),
    ("NA\n", ["--rank", 1], "a network needs at least 2 nodes to have a dyad, got 1"),
    ("a,b,c\n", ["--rank", 1], "no data rows after header"),
    ("NA,1,0\n1,NA,1\n", ["--rank", 1], "adjacency must be square, got 2x3")],
    ids=["svd-seed", "svd-nu0-chains", "svd-rank", "eigen-t2-theta", "eigen-rank",
         "eigen-asymmetric-chains", "eigen-burn-chains", "eigen-one-node",
         "eigen-header-only", "eigen-non-square"])
def test_rejected_fit_creates_no_out_dir(tmp_path, capsys, net, args, message):
    # a fit rejected before its first write, by a parent-side check or by
    # the runner's schedule check, leaves no directory, for one chain and
    # for several
    if net is None:
        cmd = ["svd-fit", "--input", small_y_file(tmp_path), "--rank", 2]
    else:
        data = tmp_path / "net.csv"
        data.write_text(net)
        cmd = ["eigen-fit", "--input", data, "--burn", 0]
    out = tmp_path / "out"
    assert run_cli(*cmd, *args, "--iters", 10, "--thin", 5, "--out-dir", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_one_entry_y_is_rejected_without_numpy_warnings(tmp_path):
    # the sample variance of a single residual has no degrees of freedom;
    # the run says so instead of printing NumPy's RuntimeWarning first
    p = tmp_path / "Y.csv"
    p.write_text("3.5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "stiefel_mcmc.cli", "svd-fit", "--input", str(p),
         "--rank", "1", "--iters", "5", "--thin", "5",
         "--out-dir", str(tmp_path / "fit")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the rank-1 fit of a 1x1 data matrix "
                                  "leaves no residual"), proc.stderr
    assert "Warning" not in proc.stderr
    assert not (tmp_path / "fit").exists()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stiefel_mcmc.cli", "svd-sim", "--m", "6",
         "--n", "5", "--rank-true", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "Y.csv").exists()


def test_log_env_var_controls_verbosity(tmp_path):
    import os

    env = dict(os.environ, STIEFEL_MCMC_LOG="INFO")
    proc = subprocess.run(
        [sys.executable, "-m", "stiefel_mcmc.cli", "svd-sim", "--m", "6",
         "--n", "5", "--rank-true", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "wrote" in proc.stderr


def test_full_rank_svd_fit_terminates(tmp_path):
    # at full rank the MLE start leaves sigma^2 near 1e-30, so the MF
    # concentrations reach ~1e30; Wood's loop used to compare NaNs forever
    sim = tmp_path / "sim"
    assert run_cli("svd-sim", "--seed", 1, "--out-dir", sim) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "stiefel_mcmc.cli", "svd-fit",
         "--input", str(sim / "Y.csv"), "--rank", "40", "--iters", "20",
         "--thin", "5", "--seed", "1", "--out-dir", str(tmp_path / "fit")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert np.all(np.isfinite(csvio.read_matrix(tmp_path / "fit" / "d_trace.csv")))


# Runs svd-sim, then svd-fit and eigen-fit with their Gibbs runners and
# the Bingham column kernel wrapped from outside the package (the way a
# benchmark harness times them), and prints which SciPy modules each stage
# had loaded.
IMPORT_BOUNDARY_SCRIPT = """
import json, sys
from stiefel_mcmc import cli

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

def loaded(name):
    return name in sys.modules

out, net = sys.argv[1], sys.argv[2]
report = {"import": scipy_loaded()}

def wrap(module, attr, key, probe):
    mod = sys.modules["stiefel_mcmc." + module]
    runner = getattr(mod, attr)

    def entered(*args, **kwargs):
        report.setdefault(key, probe())
        return runner(*args, **kwargs)
    setattr(mod, attr, entered)

wrap("svd_model", "run_svd_gibbs", "svd_runner_entry", scipy_loaded)
wrap("eigenmodel", "run_eigenmodel_gibbs", "eigen_runner_entry",
     lambda: [loaded("scipy.special"), loaded("scipy.linalg")])
wrap("kernels", "bingham_spectral", "first_column_draw",
     lambda: loaded("scipy.linalg"))
codes = [cli.main(["svd-sim", "--m", "12", "--n", "8", "--out-dir", out + "/sim"]),
         cli.main(["svd-fit", "--input", out + "/sim/Y.csv", "--truth",
                   out + "/sim/M0.csv", "--rank", "2", "--iters", "10",
                   "--thin", "5", "--out-dir", out + "/fit"])]
report["svd"] = scipy_loaded()
codes.append(cli.main(["eigen-fit", "--input", net, "--iters", "10", "--burn",
                       "5", "--thin", "5", "--out-dir", out + "/eig"]))
report["eigen"] = loaded("scipy.linalg")
report["codes"] = codes
print(json.dumps(report))
"""


def test_svd_path_never_loads_scipy_special(tmp_path, net_file):
    # SciPy is most of the package's import time and only the eigenmodel
    # uses it, so svd-sim and svd-fit load no SciPy module at all.
    # eigen-fit loads scipy.special before its chain starts, so its import
    # time stays out of the chain's timed window, and scipy.linalg (for the
    # Bingham kernel's LAPACK calls) at the first column draw, so that it
    # stays out of the set-up time. A fit that bypasses a wrapped module
    # attribute leaves its key out
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT, str(tmp_path), str(net_file)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"import": False, "svd_runner_entry": False, "svd": False,
                      "eigen_runner_entry": [True, False],
                      "first_column_draw": False, "eigen": True,
                      "codes": [0, 0, 0]}


# sha256 prefixes of each numeric output file's values (every field that
# parses as a number, row by row), rounded to 8 decimals and with -0.0 made
# 0.0, recorded from seeded fits: a refactor that keeps the draws keeps
# them. run -> {output path: digest}.
FIT_DIGESTS = {
    "svd-fit-truth-r3": {
        "M_post_mean.csv": "4dafe7a309843b61",
        "M_rankR.csv": "a94e6f068c543be9",
        "d_trace.csv": "61736181d627ab46",
        "summary.csv": "df359744423e052a",
    },
    "svd-fit-r1-chains2": {
        "chain_00/M_post_mean.csv": "47cbb2e362823691",
        "chain_00/M_rankR.csv": "a513e2c1ac52953a",
        "chain_00/d_trace.csv": "11843a60422c083a",
        "chain_01/M_post_mean.csv": "78eb28c1bc700cff",
        "chain_01/M_rankR.csv": "6076f03223ab7fe6",
        "chain_01/d_trace.csv": "9aee63efa0bb0e69",
    },
    "eigen-fit-r2": {
        "M_bar.csv": "f1c7188c5f48066a",
        "lambda_theta_trace.csv": "cb14984be849e0ef",
        "positions.csv": "270c0dcf80a79663",
    },
    "eigen-fit-r1-chains2": {
        "chain_00/M_bar.csv": "ea4cce0a06808179",
        "chain_00/lambda_theta_trace.csv": "6be0fa5659b321eb",
        "chain_00/positions.csv": "07c61aeeabf4da27",
        "chain_01/M_bar.csv": "c2261e5c0b916f32",
        "chain_01/lambda_theta_trace.csv": "989f19148618f476",
        "chain_01/positions.csv": "4bfe8559479b1df9",
    },
}


def _fit_digests(out):
    digests = {}
    for path in sorted(out.rglob("*.csv")):
        values = []
        for tok in path.read_text().replace("\n", ",").split(","):
            try:
                values.append(float(tok))
            except ValueError:
                pass
        rounded = np.round(np.array(values), 8) + 0.0
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(
            rounded.tobytes()).hexdigest()[:16]
    return digests


@pytest.mark.parametrize("run", sorted(FIT_DIGESTS))
def test_seeded_fit_outputs_match_recorded_digests(tmp_path, run):
    if run.startswith("svd"):
        assert run_cli("svd-sim", "--m", 30, "--n", 12, "--rank-true", 2,
                       "--seed", 4, "--out-dir", tmp_path / "sim") == 0
        args = ["svd-fit", "--input", tmp_path / "sim" / "Y.csv",
                "--iters", 40, "--thin", 5]
        args += {"svd-fit-truth-r3": ["--truth", tmp_path / "sim" / "M0.csv",
                                      "--rank", 3],
                 "svd-fit-r1-chains2": ["--rank", 1, "--chains", 2]}[run]
    else:
        rng = np.random.default_rng(6)
        net = em.generate_network(-0.5, np.array([8.0, 4.0]),
                                  random_uniform_frame(20, 2, rng), rng)
        codes = net.codes.copy()
        held = np.triu(rng.random(codes.shape) < 0.1, 1)
        codes[held | held.T] = -1
        write_net_csv(tmp_path / "net.csv", codes)
        args = ["eigen-fit", "--input", tmp_path / "net.csv",
                "--iters", 60, "--burn", 10, "--thin", 5]
        args += {"eigen-fit-r2": ["--rank", 2],
                 "eigen-fit-r1-chains2": ["--rank", 1, "--chains", 2]}[run]
    assert run_cli(*args, "--seed", 7, "--out-dir", tmp_path / "fit") == 0
    assert _fit_digests(tmp_path / "fit") == FIT_DIGESTS[run]
