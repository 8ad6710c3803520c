"""Independent oracles for the test suite.

Everything here is written from closed forms, explicit index loops or
numpy's own eigensolver and never calls into the library's linear-algebra
paths, so agreement between the two is a genuine cross-check. The one
exception is ``spectral_apply``: it calls ``thermomi.eigh`` on purpose,
because it is the spectral route that ``oracle_expm_taylor`` checks.
"""

import math

import numpy as np

from thermomi import OperatorError, eigh, require_hermitian

# Series truncation for the matrix-exponential oracle (relative to partial sum).
TAYLOR_CUTOFF = 1e-16
# Eigenvalues of sigma at or below this span its null space in S(rho||sigma).
NULL_EIGENVALUE = 1e-14
# Weight of rho on that null space above which S(rho||sigma) is infinite.
SUPPORT_LEAK = 1e-10


class SpectralDomainError(OperatorError):
    """A scalar function was evaluated outside its domain on the spectrum."""


def frobenius_norm(m):
    """Frobenius norm, the distance measure of every operator comparison in the tests."""
    return float(np.linalg.norm(m))


def brute_kron(a, b):
    """Kronecker product by explicit four-index loops."""
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for m in range(nb):
                    out[i * nb + k, j * nb + m] = a[i, j] * b[k, m]
    return out


def brute_partial_trace(m, d_a, d_b, keep):
    """Partial trace by explicit index sums."""
    if keep == "A":
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for k in range(d_b):
                    out[i, j] += m[i * d_b + k, j * d_b + k]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for k in range(d_b):
            for m_idx in range(d_b):
                for i in range(d_a):
                    out[k, m_idx] += m[i * d_b + k, i * d_b + m_idx]
    return out


def random_hermitian(rng, d, unit_norm=False):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    if unit_norm:
        h = h / np.linalg.norm(h)
    return h


def random_bipartite_blocks(d_a, d_b, interaction_scale, seed):
    """(H_A, H_B, H_int) of ``random_bipartite`` by the documented recipe, with complex temporaries.

    Each block is (G + G^dagger)/2, G = X + iY with X then Y drawn from
    ``default_rng(seed)``, for H_A, H_B and H_int in turn; H_int is then
    multiplied by ``interaction_scale``.
    """
    rng = np.random.default_rng(seed)

    def draw(d):
        g = rng.standard_normal((d, d)) + 1.0j * rng.standard_normal((d, d))
        return 0.5 * (g + g.conj().T)

    h_a = draw(d_a)
    h_b = draw(d_b)
    return h_a, h_b, interaction_scale * draw(d_a * d_b)


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _xlnx(p):
    return p * math.log(p) if p > 0 else 0.0


def entropy(rho):
    """S(rho) = -Tr[rho ln rho] from numpy's eigenvalues; roundoff negatives add 0."""
    return -sum(_xlnx(p) for p in np.linalg.eigvalsh(rho))


def mutual_information(rho, d_a, d_b):
    """I = S(rho_A) + S(rho_B) - S(rho) with the brute-force partial traces."""
    return (
        entropy(brute_partial_trace(rho, d_a, d_b, "A"))
        + entropy(brute_partial_trace(rho, d_a, d_b, "B"))
        - entropy(rho)
    )


def relative_entropy(rho, sigma):
    """S(rho||sigma) = Tr[rho ln rho] - Tr[rho ln sigma], or +inf on support escape.

    Tr[rho ln sigma] is summed in the eigenbasis of sigma, over the weights
    <s_j|rho|s_j>; a weight above ``SUPPORT_LEAK`` on an eigenvector with
    eigenvalue at or below ``NULL_EIGENVALUE`` makes the value infinite.
    """
    if np.shape(rho) != np.shape(sigma):
        raise ValueError("relative entropy requires states of equal dimension")
    s, v = np.linalg.eigh(sigma)
    weights = np.einsum("ij,ik,kj->j", v.conj(), rho, v).real
    null = s <= NULL_EIGENVALUE
    if (weights[null] > SUPPORT_LEAK).any():
        return math.inf
    tr_rho_ln_sigma = sum(w * math.log(lam) for w, lam in zip(weights[~null], s[~null]))
    return -entropy(rho) - tr_rho_ln_sigma


def xy_closed_form(b1, b2, g, beta):
    """Analytic two-spin XY thermodynamics in the (uu, ud, du, dd) basis.

    The joint Hamiltonian splits into outer levels +/-(b1+b2) and a central
    2x2 block (b1-b2)*sz + 2g*sx with eigenvalues +/-r, r = hypot(b1-b2, 2g).
    All quantities below follow from that split in closed form.
    """
    a = b1 - b2
    b = 2.0 * g
    r = math.hypot(a, b)
    e_up = b1 + b2
    levels = [e_up, -e_up, r, -r]
    shift = min(levels)
    weights = [math.exp(-beta * (lam - shift)) for lam in levels]
    z_shifted = sum(weights)
    ln_z = -beta * shift + math.log(z_shifted)
    p_uu, p_dd, p_plus, p_minus = [w / z_shifted for w in weights]

    if r > 0:
        cos_t = a / r
    else:
        cos_t = 1.0
    c2 = 0.5 * (1.0 + cos_t)  # cos^2(theta/2)
    s2 = 0.5 * (1.0 - cos_t)
    rc00 = p_plus * c2 + p_minus * s2
    rc11 = p_plus * s2 + p_minus * c2

    rho_a = (p_uu + rc00, p_dd + rc11)
    rho_b = (p_uu + rc11, p_dd + rc00)

    s_ab = -sum(_xlnx(p) for p in (p_uu, p_dd, p_plus, p_minus))
    s_a = -sum(_xlnx(p) for p in rho_a)
    s_b = -sum(_xlnx(p) for p in rho_b)

    e_int = (4.0 * g * g / r) * (p_plus - p_minus) if r > 0 else 0.0
    e_a = b1 * (rho_a[0] - rho_a[1])
    e_b = b2 * (rho_b[0] - rho_b[1])
    e_total = sum(p * lam for p, lam in zip((p_uu, p_dd, p_plus, p_minus), levels))

    ln_z_a = math.log(2.0 * math.cosh(beta * b1))
    ln_z_b = math.log(2.0 * math.cosh(beta * b2))

    mi = s_a + s_b - s_ab
    ub = -beta * e_int + ln_z_a + ln_z_b - ln_z
    return {
        "mutual_info": mi,
        "upper_bound": ub,
        "gap": ub - mi,
        "s_a": s_a,
        "s_b": s_b,
        "s_ab": s_ab,
        "e_total": e_total,
        "e_a": e_a,
        "e_b": e_b,
        "e_int": e_int,
        "log_z_a": ln_z_a,
        "log_z_b": ln_z_b,
        "log_z_ab": ln_z,
        "populations": (p_uu, p_dd, p_plus, p_minus),
        "rho_a_diag": rho_a,
        "rho_b_diag": rho_b,
    }


def xy_thermal_density(b1, b2, g, beta):
    """The 4x4 XY Gibbs matrix assembled from closed-form eigenvectors."""
    q = xy_closed_form(b1, b2, g, beta)
    p_uu, p_dd, p_plus, p_minus = q["populations"]
    theta = math.atan2(2.0 * g, b1 - b2)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    uu = np.array([1, 0, 0, 0], dtype=complex)
    dd = np.array([0, 0, 0, 1], dtype=complex)
    plus = np.array([0, c, s, 0], dtype=complex)
    minus = np.array([0, -s, c, 0], dtype=complex)
    rho = (
        p_uu * np.outer(uu, uu.conj())
        + p_dd * np.outer(dd, dd.conj())
        + p_plus * np.outer(plus, plus.conj())
        + p_minus * np.outer(minus, minus.conj())
    )
    return rho


def xy_spectrum(b1, b2, g):
    """Ascending closed-form spectrum of the two-spin XY Hamiltonian."""
    r = math.hypot(b1 - b2, 2.0 * g)
    return sorted([b1 + b2, -(b1 + b2), r, -r])


def spectral_apply(h, f):
    """Apply a real scalar function to a Hermitian operator through its spectrum.

    Returns V diag(f(lambda)) V^dagger. ``f`` must be finite on every
    eigenvalue; a NaN/Inf evaluation raises naming the offending eigenvalue.
    """
    dec = eigh(h)
    values = np.empty_like(dec.eigenvalues)
    for i, lam in enumerate(dec.eigenvalues):
        val = float(f(lam))
        if not math.isfinite(val):
            raise SpectralDomainError(f"function evaluated to {val!r} at eigenvalue {lam!r}")
        values[i] = val
    x = (dec.eigenvectors * values) @ dec.eigenvectors.conj().T
    return 0.5 * (x + x.conj().T)


def oracle_expm_taylor(h, s):
    """Matrix exponential exp(s*H) by scaling-and-squaring of the Taylor series.

    Independent of the spectral route: no eigendecomposition is involved.
    The argument is scaled by a power of two until its Frobenius norm is at
    most one, the series is summed until the added term drops below
    ``TAYLOR_CUTOFF`` relative to the partial sum, and the result is squared
    back up.
    """
    a = require_hermitian(h)
    if not math.isfinite(s):
        raise OperatorError(f"scale must be finite, got {s!r}")
    m = s * a
    norm = frobenius_norm(m)
    n_square = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    scaled = m / (2.0 ** n_square)

    n = a.shape[0]
    total = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, 1000):
        term = term @ scaled / k
        total = total + term
        if frobenius_norm(term) < TAYLOR_CUTOFF * frobenius_norm(total):
            break
    else:  # unreachable with scaled norm <= 1; guards against a broken loop
        raise OperatorError("matrix-exponential series did not truncate")

    for _ in range(n_square):
        total = total @ total
    return total
