"""Independent reference computations shared by the test modules.

Nothing here may import from tschmm: these are second implementations used
to cross-check the package, built only on numpy and scipy.
"""

import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import logsumexp
from scipy.stats import multivariate_normal


def brute_force_log_likelihood(priors, trans, means, covs, obs):
    """Log-likelihood by explicit summation over every hidden state path."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    n, s = len(obs), len(priors)
    log_b = np.column_stack(
        [np.atleast_1d(multivariate_normal(means[i], covs[i]).logpdf(obs)) for i in range(s)]
    )
    paths = np.array(list(itertools.product(range(s), repeat=n)), dtype=int)
    lp = np.log(priors)[paths[:, 0]] + log_b[np.arange(n), paths].sum(axis=1)
    if n > 1:
        lp = lp + np.log(trans)[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return float(logsumexp(lp))


def random_hmm_params(rng, num_states, dim):
    """Random simplex priors/transitions and well-conditioned Gaussians."""
    priors = rng.dirichlet(np.ones(num_states) * 2.0)
    trans = np.vstack([rng.dirichlet(np.ones(num_states) * 2.0) for _ in range(num_states)])
    means = rng.normal(0.0, 2.0, size=(num_states, dim))
    covs = []
    for _ in range(num_states):
        a = rng.normal(size=(dim, dim))
        covs.append(a @ a.T + 0.5 * np.eye(dim))
    return priors, trans, means, np.array(covs)


# --- per-sequence scaled recursions --------------------------------------------
# The package's recursions before they were batched across sequences, kept
# as the reference for the batched kernel. numpy only; errors are raised as
# ValueError with the package's messages.


def scaled_forward(priors, trans, log_b):
    """Normalized forward variables, log scaling constants and shifted
    emission likelihoods of one sequence, given its (T, S) log densities."""
    shift = log_b.max(axis=1)
    if not np.all(np.isfinite(shift)):
        t = int(np.argmin(np.isfinite(shift)))
        raise ValueError(f"all states have zero emission likelihood at frame {t}")
    b_hat = np.exp(log_b - shift[:, None])
    n, s = b_hat.shape
    a_hat = np.empty((n, s))
    log_c = np.empty(n)
    a = priors * b_hat[0]
    for t in range(n):
        if t:
            a = b_hat[t] * (a_hat[t - 1] @ trans)
        total = float(a.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError(f"forward mass vanished at frame {t}")
        a_hat[t] = a / total
        log_c[t] = np.log(total) + shift[t]
    return a_hat, log_c, b_hat


def scaled_backward(trans, b_hat):
    """Backward variables of one sequence, renormalized per step."""
    n, s = b_hat.shape
    beta_hat = np.empty((n, s))
    beta_hat[-1] = 1.0
    for t in range(n - 2, -1, -1):
        v = trans @ (b_hat[t + 1] * beta_hat[t + 1])
        total = float(v.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError(f"backward mass vanished at frame {t}")
        beta_hat[t] = v / total
    return beta_hat


def e_step(priors, trans, log_bs, seqs):
    """Baum-Welch sufficient statistics, one sequence at a time.

    log_bs and seqs are per-sequence (T, S) log densities and (T, D)
    frames. Returns pi_acc, trans_acc, resp, mean_acc, the list of
    per-sequence state posteriors and the total log-likelihood.
    """
    s, d = len(priors), seqs[0].shape[1]
    pi_acc, trans_acc = np.zeros(s), np.zeros((s, s))
    resp, mean_acc = np.zeros(s), np.zeros((s, d))
    gammas, total_ll = [], 0.0
    for log_b, frames in zip(log_bs, seqs):
        a_hat, log_c, b_hat = scaled_forward(priors, trans, log_b)
        beta_hat = scaled_backward(trans, b_hat)
        joint = a_hat * beta_hat
        gamma = joint / joint.sum(axis=1, keepdims=True)
        if len(frames) > 1:
            m = (
                a_hat[:-1, :, None]
                * trans[None, :, :]
                * (b_hat[1:] * beta_hat[1:])[:, None, :]
            )
            trans_acc += (m / m.sum(axis=(1, 2))[:, None, None]).sum(axis=0)
        pi_acc += gamma[0]
        resp += gamma.sum(axis=0)
        mean_acc += gamma.T @ frames
        gammas.append(gamma)
        total_ll += float(log_c.sum())
    return pi_acc, trans_acc, resp, mean_acc, gammas, total_ll


# --- emission table by triangular solve -------------------------------------
# The package's emission table before it multiplied by each state's inverse
# Cholesky factor, and its prediction densities before they took einsum over
# stacked inverse factors: a triangular solve against all the frames.


def solve_log_density(frames, mean, cov):
    """(T,) log densities of the (T, D) frames under N(mean, cov), solving
    against the numpy Cholesky factor of cov."""
    chol = np.linalg.cholesky(cov)
    # a lone frame is solved beside a copy of itself: BLAS takes another
    # path for one right-hand side, whose rounding differs from the batch's
    rhs = (frames - mean).T
    y = solve_triangular(chol, rhs if len(frames) > 1 else rhs[:, [0, 0]], lower=True)
    quad = np.sum(y * y, axis=0)[: len(frames)]
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (len(mean) * float(np.log(2.0 * np.pi)) + log_det + quad)


def solve_log_emissions(means, covs, frames, dims):
    """(T, S) log densities of the (T, len(dims)) frames under each state's
    marginal on `dims`; means and covs are stacked (S, D) and (S, D, D)."""
    dims = np.asarray(dims)
    return np.column_stack([
        solve_log_density(frames, mean[dims], cov[np.ix_(dims, dims)])
        for mean, cov in zip(means, covs)
    ])


# --- per-state regression terms ---------------------------------------------
# The package's per-state regression terms as computed before one Cholesky
# factor of the human block served both: the marginal density factored the
# block with numpy, exactly as log_density(frames, marginalize(g, h)) did,
# and the gain factored it again with scipy's cho_factor/cho_solve.


def factored_twice_human_terms(mean, cov, human_idx, robot_idx, frames):
    """One state's human-marginal log densities (T,) and conditional robot
    means (T, R) of the (T, D_human) frames."""
    h, r = np.asarray(human_idx), np.asarray(robot_idx)
    s11 = cov[np.ix_(h, h)]
    log_b = solve_log_density(frames, mean[h], s11)
    gain = cho_solve(cho_factor(s11, lower=True), cov[np.ix_(h, r)]).T
    cond = np.einsum("th,rh->tr", frames, gain) + (mean[r] - gain @ mean[h])
    return log_b, cond


# --- gated prediction --------------------------------------------------------
# The transition-state predictor's maths written out directly: explicit
# solves for the conditional means, scipy densities, the per-sequence
# forward pass above. An HMM is (priors, trans, means, covs).


def _human_terms(hmm, human_idx, frames):
    """Human-marginal log densities (T, S) and conditional robot means
    (T, S, R) of each state, by explicit Gaussian conditioning."""
    _, _, means, covs = hmm
    h = np.asarray(human_idx)
    r = np.setdiff1d(np.arange(means.shape[1]), h)
    log_b, cond = [], []
    for mean, cov in zip(means, covs):
        log_b.append(
            np.atleast_1d(multivariate_normal(mean[h], cov[np.ix_(h, h)]).logpdf(frames))
        )
        gain = np.linalg.solve(cov[np.ix_(h, h)], cov[np.ix_(h, r)]).T
        cond.append(mean[r] + (frames - mean[h]) @ gain.T)
    return np.column_stack(log_b), np.stack(cond, axis=1)


def _softmax(a):
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def tsc_predict(base, trans, human_idx, frames):
    """Base regression rows, gate rows and the gate's margin for
    (T, D_human) frames.

    The base rows weight each state's conditional mean by the forward
    variables of the human marginal. A frame fires when its margin, the
    best transition-state human log density less the log of the
    forward-weighted base mixture density, is positive; fired rows weight
    the transition states' conditional means by their human densities
    alone.
    """
    log_b, cond = _human_terms(base, human_idx, frames)
    log_bt, cond_t = _human_terms(trans, human_idx, frames)
    h, _, _ = scaled_forward(base[0], base[1], log_b)
    rows = np.einsum("ts,tsr->tr", h, cond)
    with np.errstate(divide="ignore"):
        log_w = np.log(h) + log_b
    margin = log_bt.max(axis=1) - logsumexp(log_w, axis=1)
    fire = margin > 0.0
    gate = rows.copy()
    gate[fire] = np.einsum("ts,tsr->tr", _softmax(log_bt[fire]), cond_t[fire])
    return rows, gate, margin


def masked_runs(seqs, masks):
    """The transition HMM's training runs, cut demo by demo: each contiguous
    stretch of each demo's frames where its mask is true, in order."""
    runs = []
    for frames, mask in zip(seqs, masks):
        edges = np.flatnonzero(np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0))
        runs += [frames[a:b] for a, b in zip(edges[::2], edges[1::2])]
    return runs


# --- dataset CSV files ---------------------------------------------------------
# A row-by-row reader and csv.writer's bytes: the references for `load_csv`,
# which reads a run of rows column-wise, and for the package's CSV writers,
# which format whole columns.

CSV_COLUMNS = ["demo_id", "t", "hx", "hy", "hz", "rx", "ry", "rz", "label"]


def load_csv_rows(path):
    """`load_csv` row by row: each demo as (human_pos, robot_pos, label), or
    ValueError with the package's message for the earliest fault."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _read_rows(reader, path)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_rows(reader, path):
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if header != CSV_COLUMNS:
        raise ValueError(
            f"{path}: header {header!r} does not match required columns {CSV_COLUMNS!r}"
        )
    demos = []
    demo_id, coords, label = None, [], ""

    def close_demo():
        if len(coords) < 2:
            raise ValueError(f"{path}: demo {demo_id} has fewer than 2 frames")
        pos = np.array(coords)
        demos.append((pos[:, 0:3], pos[:, 3:6], label))

    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: line {reader.line_num}: expected {len(CSV_COLUMNS)} fields")
        try:
            key = (int(row[0]), int(row[1]))
            vals = [float(v) for v in row[2:8]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"{path}: line {reader.line_num}: non-finite coordinate")
        if demo_id is not None and key <= (demo_id, len(coords) - 1):
            raise ValueError(f"{path}: line {reader.line_num}: rows not sorted by (demo_id, t)")
        if key[0] != demo_id:
            if demo_id is not None:
                close_demo()
            demo_id, coords, label = key[0], [], row[8]
        if key[1] != len(coords):
            raise ValueError(
                f"{path}: line {reader.line_num}: "
                f"demo {demo_id} expected t={len(coords)}, got t={key[1]}"
            )
        coords.append(vals)
    if demo_id is None:
        raise ValueError(f"{path}: no data rows")
    close_demo()
    return demos


def csv_bytes(header, rows) -> bytes:
    """csv.writer's bytes for a header and rows of per-field values."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def dataset_rows(demos):
    """`save_csv`'s rows for (human_pos, robot_pos, label) demos, field by field."""
    return [[demo_id, t, *(repr(float(v)) for v in (*human[t], *robot[t])), label]
            for demo_id, (human, robot, label) in enumerate(demos)
            for t in range(len(human))]
