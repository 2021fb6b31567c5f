"""Independent reference computations the library is checked against.

Everything here recomputes from first principles: explicit wide loops over
lattice indices, raw entry arithmetic, and Gauss-Legendre quadrature over
the frequency domain.  Nothing calls the closed-form inner products, the
lag grouping or the coordinate helpers under test: support points are
decoded here from a signal's raw fields.
"""

from fractions import Fraction

import numpy as np


def _lambda(s, l, lat):
    return Fraction(s * lat.r, lat.N) + 2 * l


def points(f):
    """``(s, l, matrix)`` for every support point of a matrix sequence.

    Decoded from the raw coordinate ``k = s*r + 2N*l``: ``r`` is odd and
    ``2N*l`` even, so ``s = k mod 2``.
    """
    out = []
    for k, m in zip(f.k.tolist(), f.mats):
        s = k % 2
        out.append((s, (k - s * f.lattice.r) // (2 * f.lattice.N), m))
    return out


def entries(f):
    """The support of a matrix sequence as ``{(s, l): matrix}``."""
    return {(s, l): m for s, l, m in points(f)}


def brute_shift_inner(f, g, s, l):
    """<f, shift_(s,l) g> by direct enumeration over the signal support."""
    lat = f.lattice
    lshift = lat.r * s + 2 * lat.N * l
    g_at = entries(g)
    total = 0j
    for ps, pl, fm in points(f):
        gm = g_at.get((ps, pl - lshift))
        if gm is not None:
            for a in range(f.n):
                for b in range(f.n):
                    total += fm[a, b] * np.conj(gm[a, b])
    return total


def brute_frame_sum(sys, f, l_window=60):
    """Frame sum by brute enumeration over |l| <= l_window (no overlap logic)."""
    total = 0.0
    for g in sys.envelopes:
        for s in (0, 1):
            for l in range(-l_window, l_window + 1):
                c = brute_shift_inner(f, g, s, l)
                total += abs(c) ** 2
    return total


def quad_grid(lat, nodes_per_cell=64, refinement=1):
    """Gauss-Legendre nodes/weights tiling the whole frequency domain."""
    t, w = np.polynomial.legendre.leggauss(nodes_per_cell)
    xs, ws = [], []
    width = 1.0 / (4 * lat.N * refinement)
    starts = [c * width for c in range(2 * lat.N * refinement)]
    starts += [lat.N / 2 + c * width for c in range(2 * lat.N * refinement)]
    for a in starts:
        xs.append(a + (t + 1.0) * width / 2.0)
        ws.append(w * width / 2.0)
    return np.concatenate(xs), np.concatenate(ws)


def eval_spectrum(f, xs):
    """Entry-wise exponential sums evaluated on a frequency grid."""
    xs = np.asarray(xs)
    out = np.zeros((xs.size, f.n, f.n), dtype=np.complex128)
    for s, l, m in points(f):
        lam = float(_lambda(s, l, f.lattice))
        out += np.exp(2j * np.pi * lam * xs)[:, None, None] * np.asarray(m)
    return out


def quad_inner_l2(f, g, nodes_per_cell=64):
    """Quadrature value of the frequency-domain inner product <F(f), F(g)>."""
    xs, ws = quad_grid(f.lattice, nodes_per_cell)
    vf = eval_spectrum(f, xs)
    vg = eval_spectrum(g, xs)
    return complex(np.sum(ws * np.sum(vf * np.conj(vg), axis=(1, 2))))


def step_on_grid(S, xs):
    """Step-spectrum values on a grid, located by raw interval arithmetic."""
    N, K = S.lattice.N, S.refinement
    out = np.zeros((len(xs), S.n, S.n), dtype=np.complex128)
    for i, x in enumerate(xs):
        if 0 <= x < 0.5:
            idx = min(int(x * 4 * N * K), 2 * N * K - 1)
        else:
            idx = 2 * N * K + min(int((x - N / 2) * 4 * N * K), 2 * N * K - 1)
        out[i] = S.values[idx]
    return out


def quad_inner_step_step(S, T, s, l, nodes_per_cell=16, refinement=None):
    lat = S.lattice
    refinement = refinement or max(S.refinement, T.refinement)
    xs, ws = quad_grid(lat, nodes_per_cell, refinement=refinement)
    lam = float(_lambda(s, l, lat))
    phase = np.exp(4j * np.pi * lat.N * lam * xs)
    integrand = np.sum(
        step_on_grid(S, xs) * np.conj(phase[:, None, None] * step_on_grid(T, xs)),
        axis=(1, 2),
    )
    return complex(np.sum(ws * integrand))
