"""Command-line harness: seeded experiment runs with CSV artifacts.

Subcommands
-----------
svd-sim    generate a low-rank-plus-noise dataset (Y.csv, M0.csv, d0.csv)
svd-fit    Gibbs estimation of the low-rank mean from Y.csv
eigen-fit  latent-eigenmodel analysis of a symmetric binary network

Every run writes a manifest.json (full configuration, seed, package
version, ``kernels.BACKEND``) next to its outputs; re-running with the
same configuration and seed reproduces the numeric outputs byte for
byte, given the same NumPy, SciPy and BLAS.
Exit codes: 0 success, 2 validation/input error, 3 I/O error. The
STIEFEL_MCMC_LOG environment variable (DEBUG/INFO/WARNING/ERROR) controls
log verbosity.
"""
from __future__ import annotations

import argparse
import logging
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, csvio, eigenmodel, svd_model
from .errors import StiefelMcmcError
from .kernels import BACKEND
from .rng import derive_rng

log = logging.getLogger("stiefel_mcmc")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

# BLAS thread-count variables pinned to 1 while --chains workers start, so
# that parallel chains do not oversubscribe the CPUs
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _setup_logging():
    level = os.environ.get("STIEFEL_MCMC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _manifest(cfg, extra=None) -> dict:
    payload = {k: v for k, v in sorted(vars(cfg).items())
               if k != "func" and not k.startswith("_")}
    payload["version"] = __version__
    payload["backend"] = BACKEND
    if extra:
        payload.update(extra)
    return payload


def _chain_manifest(cfg, chain: int, extra: dict) -> dict:
    """The manifest of one chain, with the BLAS thread variables its
    process saw."""
    return _manifest(cfg, {"chain": chain, **extra,
                           "blas_threads": {k: os.environ.get(k)
                                            for k in BLAS_THREAD_VARS}})


def cmd_svd_sim(cfg) -> int:
    rng = derive_rng(cfg.seed, "svd-sim")
    y, truth = svd_model.simulate_dataset(cfg.m, cfg.n, cfg.rank_true, rng)
    out = Path(cfg.out_dir)
    csvio.write_matrix(out / "Y.csv", y)
    csvio.write_matrix(out / "M0.csv", truth.mean_matrix())
    csvio.write_matrix(out / "d0.csv", truth.d.reshape(1, -1))
    csvio.write_manifest(out / "manifest.json", _manifest(cfg))
    log.info("wrote %s (%dx%d), true rank %d", out / "Y.csv", cfg.m, cfg.n,
             cfg.rank_true)
    return EXIT_OK


def _log_chain_rate(chain: int, iters: int, seconds: float,
                    diagnostics: dict) -> None:
    log.info("chain %d: %d Gibbs iterations in %.3f s (%.1f iterations/s)%s",
             chain, iters, seconds, iters / seconds, "".join(
                 f", {key} {round(value, 2)}" for key, value in diagnostics.items()))


def _svd_fit_chain(cfg, chain: int, rng, out: Path, y, hyper, m0) -> None:
    result = svd_model.run_svd_gibbs(y, cfg.rank, hyper, cfg.iters, cfg.thin, rng)
    repairs = result.counts.frame_repairs
    _log_chain_rate(chain, cfg.iters, result.seconds, {"frame_repairs": repairs})
    rank_r = svd_model.rank_r_approximation(result.mean, cfg.rank)

    csvio.write_trace(out / "d_trace.csv",
                      [f"d_{j + 1}" for j in range(cfg.rank)],
                      result.saved_iters, result.trace)
    csvio.write_matrix(out / "M_post_mean.csv", result.mean)
    csvio.write_matrix(out / "M_rankR.csv", rank_r)

    if m0 is not None:
        # the chain's start is the rank-R MLE, so Y is factored only once
        csvio.write_summary(out / "summary.csv", [
            ("mse_mle", svd_model.mean_squared_error(m0, result.start.mean_matrix())),
            ("mse_posterior_mean", svd_model.mean_squared_error(m0, result.mean)),
            ("mse_rank_r", svd_model.mean_squared_error(m0, rank_r)),
        ])
    csvio.write_manifest(out / "manifest.json",
                         _chain_manifest(cfg, chain,
                                         {"saved_count": result.saved_count,
                                          "frame_repairs": repairs}))


def cmd_svd_fit(cfg) -> int:
    hyper = svd_model.SvdHyperParams(nu0=cfg.nu0, s20=cfg.s20,
                                     eta0=cfg.eta0, t20=cfg.t20)
    y = csvio.read_matrix(cfg.input)
    if not np.isfinite(y).all():
        raise StiefelMcmcError(f"{cfg.input}: missing or non-finite entries are "
                               "not supported by the low-rank mean model")
    m0 = None
    if cfg.truth:
        m0 = csvio.read_matrix(cfg.truth)
        if m0.shape != y.shape:
            raise StiefelMcmcError(f"{cfg.truth}: the truth has shape {m0.shape}, "
                                   f"the data matrix {y.shape}")
        if not np.isfinite(m0).all():
            raise StiefelMcmcError(f"{cfg.truth}: the truth has missing or "
                                   "non-finite entries")
    m, n = y.shape
    if not 1 <= cfg.rank <= min(m, n):
        raise StiefelMcmcError(f"--rank must lie in 1..{min(m, n)} for the "
                               f"{m}x{n} data matrix, got {cfg.rank}")
    return _fan_out(cfg, "svd-fit", _svd_fit_chain, y, hyper, m0)


def _eigen_fit_chain(cfg, chain: int, rng, out: Path, net, hyper, cov) -> None:
    # the chain's probit draws need scipy.special, which the package does
    # not import with its modules. initial_state would load it before the
    # logged loop; loading it here also keeps its import time out of the
    # run_eigenmodel_gibbs call, which perfbench times as the Gibbs window
    import scipy.special  # noqa: F401
    result = eigenmodel.run_eigenmodel_gibbs(net, hyper, cfg.iters, cfg.burn,
                                             cfg.thin, rng)
    diagnostics = result.counts.report()
    _log_chain_rate(chain, cfg.iters, result.seconds, diagnostics)
    positions, eigvals = eigenmodel.latent_positions(result.mean, cfg.rank)
    scaled = positions * np.sqrt(np.abs(eigvals))

    csvio.write_trace(out / "lambda_theta_trace.csv",
                      [f"lambda_{j + 1}" for j in range(cfg.rank)] + ["theta"],
                      result.saved_iters, result.trace)
    csvio.write_matrix(out / "M_bar.csv", result.mean)

    header = (["node"] + [f"u_{j + 1}" for j in range(cfg.rank)]
              + [f"u_{j + 1}_scaled" for j in range(cfg.rank)])
    table = np.column_stack([np.arange(1, net.n + 1), positions, scaled])
    if cov is not None:
        names, cov_table = cov
        header += list(names)
        table = np.column_stack([table, cov_table])
    csvio.write_matrix(out / "positions.csv", table, header=header)
    csvio.write_manifest(out / "manifest.json",
                         _chain_manifest(cfg, chain,
                                         {"n": net.n, "t2_lambda": hyper.t2_lambda,
                                          "saved_count": result.saved_count,
                                          "eigenvalues": [float(v) for v in eigvals],
                                          "u_sweeps": diagnostics}))


def cmd_eigen_fit(cfg) -> int:
    net = csvio.parse_adjacency(cfg.input)
    if not 1 <= cfg.rank <= net.n:
        raise StiefelMcmcError(f"--rank must lie in 1..{net.n} for the network "
                               f"of {net.n} nodes, got {cfg.rank}")
    cov = csvio.parse_covariates(cfg.covariates, net.n) if cfg.covariates else None
    t2_lambda = cfg.t2_lambda if cfg.t2_lambda is not None else float(net.n)
    hyper = eigenmodel.EigenHyperParams(t2_lambda=t2_lambda,
                                        t2_theta=cfg.t2_theta, rank=cfg.rank)
    return _fan_out(cfg, "eigen-fit", _eigen_fit_chain, net, hyper, cov)


def _fan_out(cfg, label: str, chain_fn, *inputs) -> int:
    """Run `chain_fn(cfg, k, rng, out, *inputs)` for each chain k: in this
    process for one chain, in separate processes for several.

    The caller has read and checked the inputs; chain k of several
    writes to `out/chain_XX`, which csvio makes with its first file.
    Chain processes are spawned, not forked, with the BLAS thread
    variables set to 1 while they start: the BLAS library reads them when
    NumPy is first imported, which a forked child inherits from the
    parent. The parent's environment is restored once every worker has
    started.
    """
    if cfg.chains < 1:
        raise StiefelMcmcError("--chains must be a positive integer")
    rngs = [derive_rng(cfg.seed, label, k) for k in range(cfg.chains)]
    out = Path(cfg.out_dir)
    if cfg.chains == 1:
        chain_fn(cfg, 0, rngs[0], out, *inputs)
        return EXIT_OK
    with ProcessPoolExecutor(max_workers=min(cfg.chains, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=_setup_logging) as ex:
        saved = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
        os.environ.update({k: "1" for k in BLAS_THREAD_VARS})
        try:
            futures = [ex.submit(chain_fn, cfg, k, rng, out / f"chain_{k:02d}",
                                 *inputs)
                       for k, rng in enumerate(rngs)]
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        for fut in futures:
            fut.result()
    # written last, so that a run whose chain failed leaves no manifest
    csvio.write_manifest(out / "manifest.json", _manifest(cfg))
    return EXIT_OK


def _add_common(p, iters_default, thin_default):
    p.add_argument("--seed", type=int, default=0, help="64-bit run seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--iters", type=int, default=iters_default,
                   help="Gibbs iterations")
    p.add_argument("--thin", type=int, default=thin_default,
                   help="save every thin-th iteration")
    p.add_argument("--chains", type=int, default=1,
                   help="independent chains run in parallel subprocesses, "
                        "each writing to its own chain_XX subdirectory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stiefel-mcmc",
        description="Gibbs samplers on the Stiefel manifold: low-rank matrix "
                    "means and latent-eigenmodel network analysis.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("svd-sim", help="simulate a low-rank-plus-noise matrix")
    sim.add_argument("--m", type=int, default=60, help="rows")
    sim.add_argument("--n", type=int, default=40, help="columns")
    sim.add_argument("--rank-true", type=int, default=4,
                     help="rank of the simulated mean matrix")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-dir", default=".")
    sim.set_defaults(func=cmd_svd_sim)

    fit = sub.add_parser("svd-fit", help="Gibbs fit of the low-rank mean model")
    fit.add_argument("--input", required=True, help="data matrix CSV")
    fit.add_argument("--rank", type=int, default=6, help="fitted rank")
    fit.add_argument("--truth", default=None,
                     help="optional true mean CSV; enables summary.csv with MSEs")
    fit.add_argument("--nu0", type=float, default=1.0)
    fit.add_argument("--s20", type=float, default=1.0)
    fit.add_argument("--eta0", type=float, default=1.0)
    fit.add_argument("--t20", type=float, default=1.0)
    _add_common(fit, iters_default=2500, thin_default=5)
    fit.set_defaults(func=cmd_svd_fit)

    eig = sub.add_parser("eigen-fit",
                         help="latent-eigenmodel fit of a symmetric 0/1 network")
    eig.add_argument("--input", required=True,
                     help="n x n adjacency CSV with entries 0, 1 or NA")
    eig.add_argument("--rank", type=int, default=2, help="latent dimension")
    eig.add_argument("--covariates", default=None,
                     help="optional per-node covariate CSV appended to positions.csv")
    eig.add_argument("--burn", type=int, default=100)
    eig.add_argument("--t2-lambda", dest="t2_lambda", type=float, default=None,
                     help="prior variance of the lambda entries (default: n)")
    eig.add_argument("--t2-theta", dest="t2_theta", type=float, default=100.0,
                     help="prior variance of the intercept")
    _add_common(eig, iters_default=10000, thin_default=10)
    eig.set_defaults(func=cmd_eigen_fit)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    cfg = build_parser().parse_args(argv)
    try:
        return cfg.func(cfg)
    except StiefelMcmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
