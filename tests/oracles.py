"""Independent reference implementations used only by the test suite.

Each oracle deliberately takes the naive route (direct kernel scaling,
dense grid search, explicit Gaussian algebra, central differences) so it
shares no code path with the package implementations it checks.
"""

import numpy as np


def sinkhorn_scaling_oracle(cost, row_marginal, col_marginal, epsilon, iters=5000):
    """Classic u/v matrix scaling on the explicit Gibbs kernel."""
    kernel = np.exp(-np.asarray(cost, dtype=float) / epsilon)
    a = np.asarray(row_marginal, dtype=float)
    b = np.asarray(col_marginal, dtype=float)
    u = np.ones_like(a)
    for _ in range(iters):
        v = b / (kernel.T @ u)
        u = a / (kernel @ v)
    return u[:, None] * kernel * v[None, :]


def entropic_objective(cost, plan, epsilon):
    """<C, T> + eps * sum T log T with the 0 log 0 = 0 convention."""
    plan = np.asarray(plan, dtype=float)
    ent = np.where(plan > 0, plan * np.log(np.where(plan > 0, plan, 1.0)), 0.0)
    return float(np.sum(cost * plan) + epsilon * np.sum(ent))


def dual_value_oracle(log_weights, scores, lam, rho, epsilon):
    """Straightforward stable evaluation of lam*rho + lam*eps*log E_q exp(f/(lam*eps))."""
    a = np.asarray(log_weights, dtype=float) + np.asarray(scores, dtype=float) / (lam * epsilon)
    m = np.max(a)
    log_z = m + np.log(np.sum(np.exp(a - m)))
    return lam * rho + lam * epsilon * log_z


def component_dual_value_oracle(weights, means, covs, x, w, b, lam, rho, epsilon):
    """lam*rho + lam*eps*log E exp((w.y + b)/(lam*eps)) over a Gaussian
    mixture prior tilted toward x, by plain Gaussian algebra.

    The tilt multiplies the prior by exp(-|y - x|^2 / eps), a Gaussian
    factor in y of covariance eps/2 I. Component k's tilted covariance is
    the inverse of the summed precisions, its mean that covariance times
    the summed precision-weighted means, and its weight the prior weight
    times the factor's normalizer N(x; m, S + eps/2 I), written with a
    determinant and an inverse. Over each tilted Gaussian, log E exp(t f)
    is t mu + t^2 v / 2. Covariances must be invertible.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    eye = np.eye(x.size)
    t = 1.0 / (lam * epsilon)
    terms, norms = [], []
    for pi, m, cov in zip(weights, means, covs):
        if pi == 0:
            continue
        prec = np.linalg.inv(cov)
        tilted_cov = np.linalg.inv(prec + (2.0 / epsilon) * eye)
        tilted_mean = tilted_cov @ (prec @ m + (2.0 / epsilon) * x)
        kernel_cov = cov + 0.5 * epsilon * eye
        diff = x - m
        log_kernel = -0.5 * (diff @ np.linalg.inv(kernel_cov) @ diff
                             + np.log(np.linalg.det(2.0 * np.pi * kernel_cov)))
        mu = w @ tilted_mean + b
        v = w @ tilted_cov @ w
        norms.append(np.log(pi) + log_kernel)
        terms.append(norms[-1] + t * mu + 0.5 * t * t * v)

    def lse(a):
        a = np.array(a)
        return a.max() + np.log(np.sum(np.exp(a - a.max())))

    return lam * rho + lam * epsilon * (lse(terms) - lse(norms))


def minimize_dual_oracle(value, lam_lo=1e-6, lam_hi=100.0, grid=4000, resolution=1e-6):
    """Grid scan of value(lam) over log-spaced lambda followed by
    golden-section refinement.

    Returns (lam_star, value). Refinement narrows the bracket until its
    width falls below `resolution`.
    """
    lams = np.geomspace(lam_lo, lam_hi, grid)
    vals = np.array([value(l) for l in lams])
    k = int(np.argmin(vals))
    lo = lams[max(k - 1, 0)]
    hi = lams[min(k + 1, grid - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = value(x1)
    f2 = value(x2)
    while hi - lo > resolution:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = value(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = value(x2)
    lam = 0.5 * (lo + hi)
    return lam, value(lam)


def solve_dual_oracle(log_weights, scores, rho, epsilon,
                      lam_lo=1e-6, lam_hi=100.0, grid=4000, resolution=1e-6):
    """minimize_dual_oracle over dual_value_oracle: (lam_star, value)."""
    return minimize_dual_oracle(
        lambda lam: dual_value_oracle(log_weights, scores, lam, rho, epsilon),
        lam_lo, lam_hi, grid, resolution)


def primal_worst_case_oracle(log_weights, scores, rho, epsilon, steps=200):
    """sup E_p f over eps * KL(p || q) <= rho, from the primal side.

    The maximizer is the exponential tilt p ~ q * exp(beta * f) whose
    budget binds, eps * KL(p || q) = rho; KL grows with beta, so beta is
    found by plain bisection. When even the limit beta -> inf (q restricted
    to the top-scoring atoms) stays within the budget, the supremum is the
    top score and beta is inf. Returns (value, beta); the dual multiplier
    is lambda* = 1 / (beta * eps).
    """
    logw = np.asarray(log_weights, dtype=float)
    live = logw > -np.inf
    q = np.exp(logw[live])
    q = q / q.sum()
    f = np.asarray(scores, dtype=float)[live]
    top = f == f.max()
    if epsilon * -np.log(q[top].sum()) <= rho:
        return float(f.max()), np.inf

    def tilt(beta):
        w = q * np.exp(beta * (f - f.max()))
        return w / w.sum()

    def spent(beta):
        p = tilt(beta)
        held = p > 0
        return epsilon * np.sum(p[held] * np.log(p[held] / q[held]))

    lo, hi = 0.0, 1.0
    while spent(hi) < rho:
        lo, hi = hi, 2.0 * hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if spent(mid) < rho:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    return float(tilt(beta) @ f), beta


def huber_piecewise_oracle(residuals, beta):
    """Huber value and derivative by masked select between the two pieces.

    The quadratic piece is evaluated everywhere, so residuals far outside
    the knee overflow there; the select discards those entries.
    """
    r = np.asarray(residuals, dtype=float)
    a = np.abs(r)
    inside = a <= beta
    with np.errstate(over="ignore"):
        value = np.where(inside, 0.5 * r * r, beta * (a - 0.5 * beta))
    deriv = np.where(inside, r, beta * np.sign(r))
    return value, deriv


def robust_huber_penalty_oracle(weights, biases, features, responses, log_weights,
                                tilted_means, tilted_covs, beta, weight, temperature,
                                half_width=40.0, points=16001):
    """Huber-plus-penalty loss and gradients of an affine fit over tilted
    Gaussian components, row by row and component by component.

    Row i's loss is H(r_i) + weight * T * log sum_b exp(log_weights[i, b])
    E_b exp(H(z_i - f(y)) / T), y ~ N(tilted_means[i, b], tilted_covs[b]).
    Under component b, u = w . y + b is N(mu, v), and E_b is its 1-D
    integral in s = (u - mu) / sqrt(v): a dense trapezoid over s in
    [-half_width, half_width], shifted by the log integrand's max; v = 0
    is the point s = 0. The gradient differentiates under the integral,
    dr/dw = -(m + s S w / sqrt(v)). A component with log weight -inf is
    skipped. Returns (mean loss, [(1, d) weight gradient, (1,) bias
    gradient]).
    """
    w = np.asarray(weights, dtype=float)[0]
    b = float(np.asarray(biases, dtype=float)[0])
    x = np.asarray(features, dtype=float)
    s = np.linspace(-half_width, half_width, points)
    h = s[1] - s[0]

    def trapezoid(f):
        return h * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))

    n = x.shape[0]
    total, grad_w, grad_b = 0.0, np.zeros_like(w), 0.0
    for i in range(n):
        value, deriv = huber_piecewise_oracle(responses[i] - (x[i] @ w + b), beta)
        logs, slopes, offsets = [], [], []
        for k, cov in enumerate(tilted_covs):
            if log_weights[i, k] == -np.inf:
                continue
            m = tilted_means[i, k]
            mu, sd = m @ w + b, np.sqrt(w @ cov @ w)
            grid = np.array([0.0]) if sd == 0 else s
            cell_value, cell_deriv = huber_piecewise_oracle(responses[i] - (mu + sd * grid), beta)
            log_f = cell_value / temperature - 0.5 * grid**2
            top = log_f.max()
            f = np.exp(log_f - top)
            if sd == 0:
                mass, along, flat = f[0], 0.0, cell_deriv[0] * f[0]
            else:
                mass = trapezoid(f) / np.sqrt(2.0 * np.pi)
                flat = trapezoid(f * cell_deriv) / np.sqrt(2.0 * np.pi)
                along = trapezoid(f * cell_deriv * grid) / np.sqrt(2.0 * np.pi)
            logs.append(log_weights[i, k] + top + np.log(mass))
            # E_b[H' du/dw] and E_b[H'] under component b's tilted density
            slopes.append((flat * m + (along / sd if sd else 0.0) * (cov @ w)) / mass)
            offsets.append(flat / mass)
        logs = np.array(logs)
        peak = logs.max()
        probs = np.exp(logs - peak)
        total += value + weight * temperature * (peak + np.log(probs.sum()))
        probs /= probs.sum()
        grad_w -= deriv * x[i] + weight * (probs @ np.array(slopes))
        grad_b -= deriv + weight * (probs @ np.array(offsets))
    return total / n, [grad_w[None, :] / n, np.array([grad_b / n])]


def transport_map_oracle(cost, labels, eps_class, weights):
    """The contraction harness's weight map as first written: per class, a
    fancy-indexed gather of the scaled cost columns, a max-shifted
    log-sum-exp over the base classes, exp, the mean over the supports,
    then the renormalization. Rows of weights may hold zeros but not only
    zeros."""
    scaled = -np.asarray(cost, dtype=float) / eps_class
    out = np.empty_like(weights, dtype=float)
    for c in range(weights.shape[0]):
        with np.errstate(divide="ignore"):
            logits = np.log(weights[c])[:, None] + scaled[:, np.flatnonzero(labels == c)]
        shift = np.max(logits, axis=0, keepdims=True)
        normalizer = np.log(np.sum(np.exp(logits - shift), axis=0, keepdims=True)) + shift
        responsibility = np.exp(logits - normalizer).mean(axis=1)
        out[c] = responsibility / responsibility.sum()
    return out


def central_difference(fn, x, h=1e-5):
    """Central-difference gradient; scalar x gives a scalar back."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = float(x)
        return (fn(x + h) - fn(x - h)) / (2.0 * h)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad
