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

    def test_covariate_row_count_checked(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("drug,smoke\n1,0\n0,1\n")
        cov = csvio.parse_covariates(p, 2)
        assert cov.names == ("drug", "smoke")
        with pytest.raises(ParseError):
            csvio.parse_covariates(p, 3)

    def test_roundtrip_precision(self, tmp_path):
        vals = np.array([[np.pi, 1e-17, -3.0, 1.0 / 3.0]])
        p = tmp_path / "v.csv"
        csvio.write_matrix(p, vals)
        back = csvio.read_matrix(p)
        np.testing.assert_array_equal(back, vals)

    def test_writers_match_format_value_byte_for_byte(self, tmp_path):
        vals = np.array([[np.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308],
                         [1.7976931348623157e308, -1e300, np.pi, -1.0 / 3.0, 1e16],
                         [np.inf, -np.inf, 1e-17, 123456789.0, -2.0]])
        rows = ["a,b,c,d,e"] + [",".join(csvio.format_value(v) for v in row)
                                for row in vals]
        p = tmp_path / "m.csv"
        csvio.write_matrix(p, vals, header=rows[0].split(","))
        assert p.read_bytes() == ("\n".join(rows) + "\n").encode()
        csvio.write_matrix(p, np.arange(-3, 3).reshape(2, 3))
        assert p.read_bytes() == b"-3,-2,-1\n0,1,2\n"
        csvio.write_trace(p, list("abcde"), [5, 10, 15], vals)
        trace = [f"iter,{rows[0]}"] + [f"{it},{row}" for it, row in
                                       zip((5, 10, 15), rows[1:])]
        assert p.read_bytes() == ("\n".join(trace) + "\n").encode()

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
        "1,2\n3,4\nNA,NA\n", "1e400,-0\n.5,5.\n"],
        ids=lambda text: repr(text)[1:-1])
    def test_read_matrix_agrees_with_the_full_parser(self, tmp_path, text):
        # the loadtxt fast path returns what the field-by-field parser
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

    @pytest.mark.parametrize("fault,chains", [("shape", 1), ("missing", 1),
                                              ("shape", 2)])
    def test_bad_truth_rejected_before_any_output(self, tmp_path, capsys, fault,
                                                  chains):
        run_cli("svd-sim", "--m", 12, "--n", 8, "--rank-true", 2,
                "--out-dir", tmp_path, "--seed", 1)
        m0 = csvio.read_matrix(tmp_path / "M0.csv")
        if fault == "shape":
            m0 = m0[:, :7]
        else:
            m0[3, 4] = np.nan
        truth = tmp_path / "bad_truth.csv"
        csvio.write_matrix(truth, m0)
        assert run_cli("svd-fit", "--input", tmp_path / "Y.csv", "--truth", truth,
                       "--rank", 2, "--iters", 5, "--thin", 5, "--chains", chains,
                       "--out-dir", tmp_path / "fit", "--seed", 1) == 2
        assert "bad_truth.csv" in capsys.readouterr().err
        assert [p for p in (tmp_path / "fit").rglob("*") if p.is_file()] == []

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
        assert line.endswith(" iterations/s)")


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


# Runs svd-sim and svd-fit, then eigen-fit with its Gibbs runner wrapped
# from outside the package (the way a benchmark harness times it), and
# prints which of them had loaded scipy.special.
IMPORT_BOUNDARY_SCRIPT = """
import json, sys
from stiefel_mcmc import cli

def loaded():
    return "scipy.special" in sys.modules

out, net = sys.argv[1], sys.argv[2]
report = {"import": loaded()}
codes = [cli.main(["svd-sim", "--m", "12", "--n", "8", "--out-dir", out + "/sim"]),
         cli.main(["svd-fit", "--input", out + "/sim/Y.csv", "--truth",
                   out + "/sim/M0.csv", "--rank", "2", "--iters", "10",
                   "--thin", "5", "--out-dir", out + "/fit"])]
report["svd"] = loaded()
eigenmodel = sys.modules["stiefel_mcmc.eigenmodel"]
runner = eigenmodel.run_eigenmodel_gibbs

def entered(*args, **kwargs):
    report["eigen_runner_entry"] = loaded()
    return runner(*args, **kwargs)

eigenmodel.run_eigenmodel_gibbs = entered
codes.append(cli.main(["eigen-fit", "--input", net, "--iters", "10", "--burn",
                       "5", "--thin", "5", "--out-dir", out + "/eig"]))
report["codes"] = codes
print(json.dumps(report))
"""


def test_svd_path_never_loads_scipy_special(tmp_path, net_file):
    # scipy.special is most of the package's import time and only the
    # eigenmodel uses it; eigen-fit loads it before its chain starts, so
    # its import time stays out of the chain's timed window
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT, str(tmp_path), str(net_file)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"import": False, "svd": False, "eigen_runner_entry": True,
                      "codes": [0, 0, 0]}
