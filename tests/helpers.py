"""Independent oracles and small utilities shared by the tests.

Everything here deliberately avoids the library's own Gram-Schmidt /
projection code paths: spans are measured with SVD ranks, closures by
brute-force all-pairs bracketing, so the two implementations can check
each other.
"""

import numpy as np


def random_skew(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a - a.conj().T) / 2.0


def dense_terms(key, n, count=2):
    """Dense random Hermitian terms [H0, H1, ...] drawn from
    ``default_rng(key)``, each (A + A^H)/2 of a complex Gaussian A."""
    rng = np.random.default_rng(key)
    terms = []
    for _ in range(count):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        terms.append((a + a.conj().T) / 2.0)
    return terms


def vec(mats):
    m = np.asarray(mats, dtype=complex)
    flat = m.reshape(m.shape[:-2] + (m.shape[-1] * m.shape[-2],))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def unvec(rows, n):
    rows = np.asarray(rows, dtype=float)
    half = n * n
    return (rows[..., :half] + 1j * rows[..., half:]).reshape(
        rows.shape[:-1] + (n, n))


def span_dim(mats, tol=1e-8):
    """Rank of the real span of a list of complex matrices."""
    mats = list(mats)
    if not mats:
        return 0
    v = np.atleast_2d(vec(np.stack(mats)))
    s = np.linalg.svd(v, compute_uv=False)
    if s.size == 0:
        return 0
    return int((s > tol * max(s[0], 1.0)).sum())


def span_contains(mats, x, tol=1e-8):
    """True when x lies in the real span of mats (rank does not grow)."""
    base = span_dim(mats, tol)
    return span_dim(list(mats) + [x], tol) == base


def spans_equal(mats_a, mats_b, tol=1e-8):
    da, db = span_dim(mats_a, tol), span_dim(mats_b, tol)
    if da != db:
        return False
    return span_dim(list(mats_a) + list(mats_b), tol) == da


def spanning_subset(mats, tol=1e-8):
    """SVD-cleaned spanning set for the same real span."""
    mats = list(mats)
    n = mats[0].shape[0]
    v = np.atleast_2d(vec(np.stack(mats)))
    _, s, vh = np.linalg.svd(v)
    r = int((s > tol * max(s[0], 1.0)).sum())
    return list(unvec(vh[:r], n))


def naive_closure_dim(gens, tol=1e-8):
    """Brute-force bracket closure dimension.

    Repeatedly appends every pairwise bracket and measures the span rank
    until it stops growing.  Independent of the library's layered
    schedule and Gram-Schmidt acceptance rule.
    """
    mats = [np.asarray(g, dtype=complex) for g in gens
            if np.linalg.norm(g) > 1e-12]
    if not mats:
        return 0
    current = spanning_subset(mats, tol)
    dim = len(current)
    while True:
        brackets = [a @ b - b @ a for a in current for b in current]
        new_dim = span_dim(current + brackets, tol)
        if new_dim == dim:
            return dim
        current = spanning_subset(current + brackets, tol)
        dim = new_dim


def off_block(frame, sizes, mats):
    """Largest entry of W^H M W outside the diagonal blocks ``sizes``,
    relative to ||M||_F, over the matrices M of ``mats``."""
    mats = np.asarray(mats)
    inside = np.zeros((len(frame), len(frame)), dtype=bool)
    start = 0
    for size in sizes:
        inside[start:start + size, start:start + size] = True
        start += size
    assert start == len(frame)
    rotated = frame.conj().T @ mats @ frame
    norms = np.linalg.norm(mats, axis=(1, 2))
    return float((np.abs(rotated[:, ~inside]).max(axis=1, initial=0.0)
                  / np.where(norms > 0, norms, 1.0)).max(initial=0.0))
