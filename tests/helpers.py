"""Independent oracles and small utilities shared by the tests.

Everything here deliberately avoids the library's own Gram-Schmidt /
projection code paths: spans are measured with SVD ranks, closures by
brute-force all-pairs bracketing, so the two implementations can check
each other.
"""

import contextlib
import json
from functools import reduce
from unittest import mock

import numpy as np

from dynlie import (
    LieBasis,
    control_system,
    dynamics,
    generator,
    linalg,
    pauli,
)
from dynlie.errors import NotClosedError, NotInSpanError
from dynlie.fileio import _fmt_float


def commutator(a, b):
    """Matrix commutator [a, b] = ab - ba."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(
            f"commutator needs equal square shapes, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Re tr(A^H B), a real number."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a.conj() * b).real)


def random_skew(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a - a.conj().T) / 2.0


def expm_skew(a, t=1.0):
    """exp(t*a) by ``linalg._expm_skew`` for an exactly skew-Hermitian
    ``a`` (..., n, n), with ``t`` broadcast against the stack shape, read
    back from the real form the kernel writes."""
    a, t = np.asarray(a, dtype=complex), np.asarray(t)
    n = a.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], t.shape) + (2 * n, 2 * n))
    linalg._expm_skew(a, t, out)
    return linalg._complex_form(out)


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


def member_coords(basis, x, tol=1e-8):
    """Least-squares coordinates of ``x`` over the matrices of ``basis``,
    or None when x leaves their span (residual above
    ``tol * max(1, ||x||_F)``); ValueError when the shapes differ."""
    mats = _mats(basis)
    x = np.asarray(x, dtype=complex)
    if x.shape != mats.shape[1:]:
        raise ValueError(f"element shape {x.shape} does not match "
                         f"{mats.shape[1:]}")
    v, xv = vec(mats), vec(x)
    coefs = np.linalg.lstsq(v.T, xv, rcond=None)[0]
    if np.linalg.norm(xv - coefs @ v) > tol * max(1.0, np.linalg.norm(xv)):
        return None
    return coefs


def from_coords(basis, rows):
    """Matrices rows @ basis, one per coordinate row (a single row may
    be given flat)."""
    return np.tensordot(np.atleast_2d(rows), _mats(basis), axes=1)


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


# ---------------------------------------------------------------------------
# Oracles for the adjoint representation.  The library works on structure
# constants in orthonormal coordinates; these compute the same objects
# from n x n commutators and least squares over any linearly independent
# spanning set, orthonormal or not.

def _mats(basis):
    return np.asarray(getattr(basis, "mats", basis), dtype=complex)


def _in_span(mats, targets, tol, error, what):
    """Least-squares coordinates (columns) of ``targets`` over ``mats``;
    ``error`` when a target leaves the span (relative residual above
    ``tol``) and ValueError when ``mats`` are dependent."""
    vecs = vec(mats)
    tv = np.atleast_2d(vec(targets))
    coefs, _, rank, _ = np.linalg.lstsq(vecs.T, tv.T, rcond=None)
    if rank < len(mats):
        raise ValueError("spanning set is not linearly independent")
    resid = np.linalg.norm(tv - coefs.T @ vecs, axis=1)
    if (resid / np.maximum(1.0, np.linalg.norm(tv, axis=1))).max(
            initial=0.0) > tol:
        raise error(f"{what} leaves the span")
    return coefs


def adjoint_in_span(mats, x, tol=1e-8):
    """ad_x over a linearly independent spanning set: column j holds the
    coordinates of [x, m_j]; NotInSpanError when one leaves the span."""
    mats = _mats(mats)
    if mats.ndim != 3:
        raise ValueError("expected a stack of matrices")
    x = np.asarray(x, dtype=complex)
    return _in_span(mats, x @ mats - mats @ x, tol, NotInSpanError,
                    "[x, m_j]")


def structure_tensor(basis, tol=1e-8):
    """c[i, j, k]: coordinate k of [m_i, m_j] over the spanning set;
    NotClosedError when a bracket leaves the span."""
    mats = _mats(basis)
    d = len(mats)
    if d == 0:
        return np.zeros((0, 0, 0))
    br = mats[:, None] @ mats[None] - mats[None] @ mats[:, None]
    return _in_span(mats, br.reshape(-1, *mats.shape[1:]), tol,
                    NotClosedError, "a bracket").T.reshape(d, d, d)


def killing_gram_of(basis, tol=1e-8):
    """tr(ad_i ad_j) from the adjoint matrices over the spanning set."""
    mats = _mats(basis)
    ads = [adjoint_in_span(mats, x, tol) for x in mats]
    return np.array([[np.sum(a * b.T) for b in ads] for a in ads])


def negative_definite(gram, tol=1e-8):
    """Every eigenvalue of the symmetric ``gram`` is below -tol times the
    largest magnitude (at least 1); Cartan's criterion on a Killing Gram.
    An empty Gram is not negative definite."""
    w = np.linalg.eigvalsh(gram)
    return w.size > 0 and w.max() < -tol * max(np.abs(w).max(), 1.0)


def bracket_residual(a, b, span=None):
    """Worst ||[x, e]||_F over x in ``a`` and e in ``b``; with ``span``,
    the worst norm of the part of [x, e] outside span(``span``)."""
    a, b = _mats(a), _mats(b)
    if len(a) == 0 or len(b) == 0:
        return 0.0
    br = vec((a[:, None] @ b[None] - b[None] @ a[:, None]).reshape(
        -1, *a.shape[1:]))
    if span is not None:
        q = vec(spanning_subset(_mats(span)))
        br = br - (br @ q.T) @ q
    return float(np.linalg.norm(br, axis=1).max())


def normalizer(ambient, sub, tol=1e-8):
    """Basis of {s in span(ambient) : [s, sub] in span(sub)}: the
    coordinates alpha with sum_i alpha_i [m_i, a] outside span(sub)
    vanishing for every a in ``sub``, by SVD."""
    mats, subs = _mats(ambient), _mats(sub)
    n = mats.shape[-1]
    if len(subs) == 0:
        return LieBasis(n, mats)
    q = vec(spanning_subset(subs))
    proj = np.eye(q.shape[1]) - q.T @ q
    system = np.hstack([vec(mats @ a - a @ mats) @ proj for a in subs])
    _, s, vh = np.linalg.svd(system.T, full_matrices=False)
    rows = vh[s <= tol * max(s[0], 1.0)]
    return LieBasis(n, unvec(rows @ vec(mats), n))


def project_generator(decomp, system, u, tol=1e-8):
    """Orthogonal projections of -i H(u) onto each component basis, by HS
    inner products; NotInSpanError when the pieces miss part of it."""
    if np.shape(u) != (len(system.controls),):
        raise ValueError(f"expected {len(system.controls)} control values, "
                         f"got shape {np.shape(u)}")
    g = -1j * (system.drift + sum(
        uk * h for uk, h in zip(u, system.controls)))
    pieces = [np.einsum("k,kab->ab", vec(basis.mats) @ vec(g), basis.mats)
              for _, basis in decomp.components]
    if np.linalg.norm(g - sum(pieces)) > tol * max(1.0, np.linalg.norm(g)):
        raise NotInSpanError("generator leaves the decomposition's span")
    return pieces


def loop_reference(decomp, system, schedule):
    """Total and factors as ordered products of each segment's own
    exponentials: every segment's generator is projected on its own, and
    each owner's exponentials come from one stacked ``eigh``, one matrix
    and duration per segment."""
    n = system.dim
    gens = np.array([generator(system, u) for _, u in schedule.segments],
                    dtype=complex).reshape(-1, n, n)
    # Bases held as rows compute their matrices on access: take them once.
    mats = [basis.mats for _, basis in decomp.components]
    coords = _in_span(np.concatenate(mats), gens, 1e-8, NotInSpanError,
                      "a generator").T
    owners, offset = [gens], 0
    for m in mats:
        owners.append(np.einsum("si,inm->snm",
                                coords[:, offset:offset + len(m)], m))
        offset += len(m)
    out = []
    for stack in owners:
        # exp(t a) = V exp(-i t w) V^H for i a = V w V^H, a made exactly
        # skew-Hermitian first.
        w, v = np.linalg.eigh(0.5j * (stack - stack.conj().swapaxes(-1, -2)))
        steps = (v * np.exp(-1j * schedule.durations[:, None] * w)[:, None]
                 ) @ v.conj().swapaxes(-1, -2)
        prod = np.eye(n, dtype=complex)
        for step in steps:
            prod = step @ prod
        out.append(prod)
    return out[0], out[1:]


@contextlib.contextmanager
def block_pairings():
    """Record what ``dynamics._equivalent_blocks`` returns while the block
    runs: yields a list that gets, per call, the frame's block sizes and
    {(owner, block): (block it comes from, Q, conj)}."""
    pairing, calls = dynamics._equivalent_blocks, []

    def spy(rotated, sizes, starts, acting, sq_norms):
        calls.append((sizes, pairing(rotated, sizes, starts, acting,
                                     sq_norms)))
        return calls[-1][1]

    with mock.patch.object(dynamics, "_equivalent_blocks", spy):
        yield calls


def staged(stage, algebra, *args, **kwargs):
    """Run a library stage on ``algebra`` and its oracle structure
    constants: stage(algebra, c, *args, **kwargs)."""
    return stage(algebra, structure_tensor(algebra), *args, **kwargs)


def coupled_sectors(coupling):
    """Two su(2) sectors on C^2 + C^2, coupled in the drift by ``coupling``."""
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    drift = np.zeros((4, 4), dtype=complex)
    drift[:2, :2] = sx
    drift[2:, 2:] = 0.8 * sy + 0.3 * sz
    drift[0, 3] = drift[3, 0] = coupling
    ctrl = np.zeros((4, 4), dtype=complex)
    ctrl[:2, :2] = sz
    ctrl[2:, 2:] = -0.6 * sx
    return control_system(drift, [ctrl])


def site(axis, i, k):
    """The Pauli matrix ``axis`` on spin i of k."""
    ops = [np.eye(2)] * k
    ops[i] = pauli(axis)
    return reduce(np.kron, ops)


def ising_x(k):
    """ZZ chain of k spins with a global X drive."""
    drift = sum(site("z", i, k) @ site("z", i + 1, k) for i in range(k - 1))
    return control_system(drift, [sum(site("x", i, k) for i in range(k))])


def two_pass_emit(obj, indent):
    """The report writer as it was before each list element was formatted
    once: it tries every list inline at indent 0 and, when that is too
    long, formats each element again at indent + 1.  ``dumps_report``
    must give the same bytes."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{pad}  {json.dumps(str(k))}: "
                 f"{two_pass_emit(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inline = "[" + ", ".join(two_pass_emit(v, 0) for v in obj) + "]"
        if len(inline) <= 100 and "\n" not in inline:
            return inline
        parts = [f"{pad}  {two_pass_emit(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
