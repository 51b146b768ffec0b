"""The benchmark's workloads: inputs, command lines and quality checks.

Inputs are generated here from the workload seed, never by the program
(`svd-sim`), so that a change to the program cannot change its inputs.
The chain seed passed to the program is fixed, so two runs on one input
must write byte-identical outputs. Each benchmark run fits several
inputs drawn from the seed and averages over them, because the quality
metrics of a single small input vary more across seeds than the bounds
allow.

Why these two: the tall SVD fit spends most of its time in complete QR
(LAPACK) and CSV I/O, with the `mf_vector` kernel a small share; the
paper-size network fit spends it in the `bingham_spectral` and
`zfill_probit` kernels and `eigh`, with I/O negligible. Every layer is
measured on one of them. A paper-size SVD workload (60 x 40) was
dropped: on a shared machine its timings spread more than the others',
by 0.10 to 0.27 of their median across seeds, and reached the bound in
two of six sets of ten runs. There is no large eigenmodel workload: at
n = 200 to 400 its chain had not converged within the iterations a run
can afford, so its ESS and held-out AUC were not steady across seeds.

The tall SVD chains run about 170 iterations: the bulk ESS of a chain of
95 draws, averaged over the scalars and two inputs, spread by 0.135 of
its median across ten seeds, against 0.05 to 0.10 from 150 draws on.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

CHAIN_SEED = "1"


def _uniform_frame(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    q, rr = np.linalg.qr(rng.standard_normal((m, r)))
    return q * np.sign(np.diag(rr))


def _write_csv(path: Path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    _write_csv(path, (map(repr, row) for row in mat.tolist()))


def read_numeric_csv(path: Path) -> tuple[list[str] | None, np.ndarray]:
    """Header (if the first row is not numeric) and the float table."""
    lines = Path(path).read_text().splitlines()
    header = None
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        header, lines = lines[0].split(","), lines[1:]
    return header, np.array([[float(t) for t in line.split(",")] for line in lines])


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve (Mann-Whitney statistic, ties counted half)."""
    labels = labels.astype(bool)
    pos, neg = int(labels.sum()), int((~labels).sum())
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - pos * (pos + 1) / 2) / (pos * neg))


@dataclass(frozen=True)
class SvdWorkload:
    """Low-rank mean model: Y = U0 diag(d0) V0' + N(0, 1) noise with uniform
    frames, as in svd-sim, and d0 fixed at its expected value under svd-sim."""

    m: int
    n: int
    rank_true: int
    rank: int
    thin: int
    datasets: int  # inputs generated per benchmark run
    gibbs_share: float  # share of --seconds each program process spends in Gibbs
    ms_per_iter: float  # nominal cost, sets the iteration count

    burn = 0  # the chain starts at the maximum-likelihood fit
    trace_file = "d_trace.csv"
    outputs = ("d_trace.csv", "M_post_mean.csv", "M_rankR.csv", "summary.csv",
               "manifest.json")

    def make_inputs(self, rng: np.random.Generator, work: Path) -> dict:
        u0 = _uniform_frame(self.m, self.rank_true, rng)
        v0 = _uniform_frame(self.n, self.rank_true, rng)
        # expected order statistics of the svd-sim law's sorted exponential
        # draws: random singular values made mse_ratio spread by 0.48 of its
        # median across workload seeds
        k = np.arange(1, self.rank_true + 1)
        d0 = np.cumsum(1.0 / k[::-1])[::-1] * np.sqrt(self.m * self.n)
        mean = (u0 * d0) @ v0.T
        _write_matrix(work / "Y.csv", mean + rng.standard_normal(mean.shape))
        _write_matrix(work / "M0.csv", mean)
        # an independent replicate of the data, never shown to the program
        replicate = mean + rng.standard_normal(mean.shape)
        return {"replicate_positive": replicate > 0}

    def cli_args(self, work: Path, out: Path, iters: int) -> list[str]:
        return ["svd-fit", "--input", str(work / "Y.csv"),
                "--truth", str(work / "M0.csv"), "--rank", str(self.rank),
                "--iters", str(iters), "--thin", str(self.thin),
                "--seed", CHAIN_SEED, "--out-dir", str(out)]

    def quality(self, out: Path, truth: dict) -> dict:
        """mse_ratio: posterior-mean MSE over MLE MSE, from summary.csv.
        heldout_auc: the posterior mean ranking the signs of the replicate."""
        summary = dict(line.split(",") for line in
                       (out / "summary.csv").read_text().splitlines()[1:])
        ratio = float(summary["mse_posterior_mean"]) / float(summary["mse_mle"])
        _, post_mean = read_numeric_csv(out / "M_post_mean.csv")
        return {"mse_ratio": ratio,
                "heldout_auc": auc(post_mean.ravel(),
                                   truth["replicate_positive"].ravel())}


@dataclass(frozen=True)
class EigenWorkload:
    """Probit eigenmodel: y_ij = 1(theta + u_i' diag(lam) u_j + e_ij > 0) with
    U uniform; a share of the dyads is written as NA and held out."""

    n: int
    theta: float
    lam: tuple[float, ...]
    holdout: float
    burn: int
    thin: int
    datasets: int
    gibbs_share: float
    ms_per_iter: float

    trace_file = "lambda_theta_trace.csv"
    outputs = ("lambda_theta_trace.csv", "M_bar.csv", "positions.csv",
               "manifest.json")

    @property
    def rank(self) -> int:
        return len(self.lam)

    def make_inputs(self, rng: np.random.Generator, work: Path) -> dict:
        n = self.n
        u = _uniform_frame(n, self.rank, rng)
        mean = self.theta + (u * np.array(self.lam)) @ u.T
        iu = np.triu_indices(n, 1)
        edges = (mean[iu] + rng.standard_normal(iu[0].size)) > 0
        held = rng.random(iu[0].size) < self.holdout
        table = np.full((n, n), "0", dtype=object)
        cells = np.where(held, "NA", np.where(edges, "1", "0"))
        table[iu] = cells
        table.T[iu] = cells
        _write_csv(work / "A.csv", table.tolist())
        observed = edges[~held]
        return {"held": held, "held_edges": edges[held], "true_mean": mean[iu],
                "null_theta": float(ndtri(observed.mean()))}

    def cli_args(self, work: Path, out: Path, iters: int) -> list[str]:
        return ["eigen-fit", "--input", str(work / "A.csv"),
                "--rank", str(self.rank), "--iters", str(iters),
                "--burn", str(self.burn), "--thin", str(self.thin),
                "--seed", CHAIN_SEED, "--out-dir", str(out)]

    def quality(self, out: Path, truth: dict) -> dict:
        """heldout_auc: M_bar ranking the held-out dyads.
        mse_ratio: MSE of theta_bar + M_bar against the true latent mean,
        over the MSE of the intercept-only fit probit(observed density)."""
        _, m_bar = read_numeric_csv(out / "M_bar.csv")
        _, trace = read_numeric_csv(out / self.trace_file)
        fitted = trace[:, -1].mean() + m_bar[np.triu_indices(self.n, 1)]
        target = truth["true_mean"]
        ratio = (np.mean((fitted - target) ** 2)
                 / np.mean((truth["null_theta"] - target) ** 2))
        return {"mse_ratio": float(ratio),
                "heldout_auc": auc(fitted[truth["held"]], truth["held_edges"])}


WORKLOADS = {
    "svd-tall": SvdWorkload(m=1000, n=300, rank_true=4, rank=6, thin=1,
                            datasets=2, gibbs_share=0.27, ms_per_iter=95.0),
    "eigen-paper": EigenWorkload(n=50, theta=0.0, lam=(20.0, 10.0),
                                 holdout=0.1, burn=100, thin=2, datasets=8,
                                 gibbs_share=1 / 14, ms_per_iter=2.5),
}
