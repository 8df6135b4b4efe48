"""Checks of dynlie's outputs against computations made apart from it.

Nothing here calls dynlie.  Spans are measured by SVD ranks, the algebra by a
brute-force all-pairs closure, propagators by ``scipy.linalg.expm``.  Each
check function returns a list of problems; an empty list means the output
passed.  :func:`self_check` feeds every check a corrupted output and confirms
that it complains.
"""

import json
import re
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

RANK_TOL = 1e-8
CENTROID_TOL = 1e-6
STRUCT_TOL = 1e-7
PROP_TOL = 1e-7
NEGATIVE_ZERO = "F3"
_NEG_ZERO = re.compile(r"(?<![\w.])-0(?![\w.])")


def vec(mats):
    m = np.asarray(mats, dtype=complex)
    flat = m.reshape(m.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def unvec(rows, n):
    half = n * n
    return (rows[..., :half] + 1j * rows[..., half:]).reshape(
        rows.shape[:-1] + (n, n))


def rank(rows, tol=RANK_TOL):
    rows = np.atleast_2d(rows)
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return int((s > tol * max(s[0], 1.0)).sum())


def orth(mats, n, tol=RANK_TOL):
    """SVD-orthonormal basis (k, n, n) of the real span of ``mats``."""
    if len(mats) == 0:
        return np.zeros((0, n, n), dtype=complex)
    _, s, vh = np.linalg.svd(vec(np.asarray(mats)), full_matrices=False)
    r = int((s > tol * max(s[0], 1.0)).sum())
    return unvec(vh[:r], n)


def all_brackets(a, b):
    n = a.shape[-1]
    ab = np.einsum("iab,jbc->ijac", a, b)
    ba = np.einsum("jab,ibc->ijac", b, a)
    return (ab - ba).reshape(-1, n, n)


def nullity(mat, tol):
    s = np.linalg.svd(mat, compute_uv=False)
    return mat.shape[1] - int((s > tol * max(s[0], 1.0)).sum())


def ad_matrix(basis, x):
    """ad_x on span(basis) in the coordinates of an orthonormal basis."""
    return vec(x @ basis - basis @ x) @ vec(basis).T


def hamiltonian(terms, u):
    return terms[0] + sum(uk * h for uk, h in zip(u, terms[1:]))


@dataclass(frozen=True)
class Oracle:
    """Facts about a system's algebra computed without dynlie."""

    n: int
    basis: np.ndarray      # orthonormal basis of the closure
    dim: int
    radical_dim: int
    semisimple_dim: int
    simple_count: int
    rank: int
    verdict: str


def oracle(terms, seed=0):
    """Closure, radical, simple-factor count and rank of i*span(terms).

    * closure: all-pairs brackets until the SVD rank stops growing;
    * radical: algebra intersected with the commutant of the generators
      (Zeier and Schulte-Herbrueggen, J. Math. Phys. 52, 113510);
    * simple factors: dimension of the centroid of the semisimple part,
      the matrices commuting with ad_x and ad_y for two generic x, y;
    * rank: nullity of ad_z on the semisimple part for a generic z.
    """
    n = terms[0].shape[0]
    gens = np.stack([1j * np.asarray(h, dtype=complex) for h in terms])
    basis = orth(gens, n)
    while True:
        grown = orth(np.concatenate([basis, all_brackets(basis, basis)]), n)
        if len(grown) == len(basis):
            break
        basis = grown
    d = len(basis)
    blocks = [vec(basis @ g - g @ basis).T for g in gens]
    radical = nullity(np.vstack(blocks), RANK_TOL) if d else 0
    semi = orth(all_brackets(basis, basis), n) if d else basis
    s = len(semi)
    rng = np.random.default_rng(seed)
    simple = rank_ = 0
    if s:
        x, y, z = (np.einsum("i,iab->ab", rng.standard_normal(s), semi)
                   for _ in range(3))
        eye = np.eye(s)
        lin = [np.kron(eye, a) - np.kron(a.T, eye)
               for a in (ad_matrix(semi, x), ad_matrix(semi, y))]
        simple = nullity(np.vstack(lin), CENTROID_TOL)
        rank_ = nullity(ad_matrix(semi, z), CENTROID_TOL)
    traceless = d == 0 or np.abs(np.trace(basis, axis1=1, axis2=2)).max() <= 1e-9
    if d == n * n:
        verdict = "controllable-U"
    elif d == n * n - 1 and traceless:
        verdict = "controllable-SU"
    else:
        verdict = "uncontrollable"
    return Oracle(n=n, basis=basis, dim=d, radical_dim=radical,
                  semisimple_dim=s, simple_count=simple, rank=rank_,
                  verdict=verdict)


def expm_product(terms, segments):
    """prod_k expm(-i dur_k H(u_k)), later segments on the left."""
    n = terms[0].shape[0]
    total = np.eye(n, dtype=complex)
    for dur, u in segments:
        total = scipy.linalg.expm(-1j * dur * hamiltonian(terms, u)) @ total
    return total


@dataclass(frozen=True)
class Structure:
    """The parts of an analysis the checks look at, as plain arrays."""

    dim: int
    verdict: str
    radical_dim: int
    ideals: tuple          # (k_i, n, n) stacks, one per simple ideal
    cartan: np.ndarray     # (c, n, n)
    components: tuple      # (k_i, n, n) stacks of every component


def structure_of(analysis):
    ideals = analysis.ideals.ideals if analysis.ideals is not None else ()
    cartan = (analysis.cartan.cartan.mats if analysis.cartan is not None
              else np.zeros((0, analysis.system.dim, analysis.system.dim)))
    return Structure(
        dim=analysis.closure.dim, verdict=analysis.verdict,
        radical_dim=analysis.levi.radical.dim,
        ideals=tuple(np.array(i.mats) for i in ideals),
        cartan=np.array(cartan),
        components=tuple(np.array(b.mats)
                         for _, b in analysis.decomposition.components))


def _worst_bracket(a, b):
    if len(a) == 0 or len(b) == 0:
        return 0.0
    return float(np.linalg.norm(all_brackets(a, b), axis=(1, 2)).max())


def _leaves(span, mats):
    """Largest part of any of ``mats`` outside the real span of ``span``."""
    if len(mats) == 0:
        return 0.0
    n = mats.shape[-1]
    q = vec(orth(span, n)) if len(span) else np.zeros((0, 2 * n * n))
    v = vec(mats)
    return float(np.linalg.norm(v - (v @ q.T) @ q, axis=1).max())


def check_structure(o, st):
    """An analysis against its oracle and the properties it must have."""
    p = []
    if st.dim != o.dim:
        p.append(f"algebra dim {st.dim}, oracle {o.dim}")
    if st.verdict != o.verdict:
        p.append(f"verdict {st.verdict}, oracle {o.verdict}")
    if st.radical_dim != o.radical_dim:
        p.append(f"radical dim {st.radical_dim}, oracle {o.radical_dim}")
    if len(st.ideals) != o.simple_count:
        p.append(f"{len(st.ideals)} simple ideals, oracle {o.simple_count}")
    if sum(len(i) for i in st.ideals) != o.semisimple_dim:
        p.append(f"ideals cover {sum(len(i) for i in st.ideals)} of "
                 f"semisimple dim {o.semisimple_dim}")
    for a in range(len(st.ideals)):
        for b in range(a + 1, len(st.ideals)):
            r = _worst_bracket(st.ideals[a], st.ideals[b])
            if r > STRUCT_TOL:
                p.append(f"ideals {a} and {b} do not commute ({r:.2e})")
    for a, ideal in enumerate(st.ideals):
        r = _leaves(ideal, all_brackets(o.basis, ideal))
        if r > STRUCT_TOL:
            p.append(f"ideal {a} is not ad-invariant ({r:.2e})")
    r = _worst_bracket(st.cartan, st.cartan)
    if r > STRUCT_TOL:
        p.append(f"Cartan subalgebra is not abelian ({r:.2e})")
    if len(st.cartan) != o.rank:
        p.append(f"Cartan dim {len(st.cartan)}, oracle rank {o.rank}")
    if (o.semisimple_dim - len(st.cartan)) % 2:
        p.append("Cartan subalgebra has odd codimension")
    comps = (np.concatenate(st.components) if st.components
             else np.zeros((0, o.n, o.n)))
    if len(comps) != o.dim or rank(vec(comps)) != o.dim \
            or _leaves(o.basis, comps) > STRUCT_TOL:
        p.append("components do not span the algebra")
    return p


def check_propagation(total, factors, reference):
    """Total against the expm product and the factor product; every factor
    unitary, every pair of factors commuting."""
    p = []
    n = total.shape[0]
    eye = np.eye(n)
    err = float(np.linalg.norm(total - reference))
    if err > PROP_TOL:
        p.append(f"total differs from the expm product by {err:.2e}")
    product = eye.astype(complex)
    for f in factors:
        product = product @ f
    err = float(np.linalg.norm(total - product))
    if err > PROP_TOL:
        p.append(f"total differs from the product of its factors by {err:.2e}")
    for k, f in enumerate(factors):
        err = float(np.linalg.norm(f.conj().T @ f - eye))
        if err > PROP_TOL:
            p.append(f"factor {k} is not unitary ({err:.2e})")
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            err = float(np.linalg.norm(factors[a] @ factors[b]
                                       - factors[b] @ factors[a]))
            if err > PROP_TOL:
                p.append(f"factors {a} and {b} do not commute ({err:.2e})")
    return p


def pairs(obj):
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def roundtrip_problem(text, roundtrip):
    """None when ``roundtrip`` (the program's dumps_report(loads_report(.)))
    gives ``text`` back.  :data:`NEGATIVE_ZERO` when the only difference is a
    "-0" read back as the integer 0 (fault F3), else the problem."""
    back = roundtrip(text)
    if back == text:
        return None
    if _NEG_ZERO.sub("0", text) == back:
        return NEGATIVE_ZERO
    return "report does not survive dumps_report(loads_report(text))"


def check_structure_report(o, text):
    """A ``decompose`` report against the oracle."""
    p = []
    doc = json.loads(text)
    simple = [c for c in doc["components"] if c["kind"] == "simple"]
    lines = [c for c in doc["components"] if c["kind"] == "radical-line"]
    for key, want in (("algebra_dim", o.dim), ("controllability", o.verdict),
                      ("radical_dim", o.radical_dim),
                      ("semisimple_dim", o.semisimple_dim),
                      ("cartan_dim", o.rank)):
        if doc[key] != want:
            p.append(f"{key} {doc[key]!r}, oracle {want!r}")
    if len(simple) != o.simple_count:
        p.append(f"{len(simple)} simple components, oracle {o.simple_count}")
    if sum(c["dim"] for c in simple) != o.semisimple_dim:
        p.append("simple components do not cover the semisimple part")
    if len(lines) != o.radical_dim:
        p.append(f"{len(lines)} radical lines, oracle {o.radical_dim}")
    for c in simple:
        if c["su2"] != (c["dim"] == 3):
            p.append(f"su2 flag {c['su2']} on a simple ideal of dim {c['dim']}")
    return p


def check_propagation_report(o, text, reference, final_time):
    """A ``simulate`` report against the expm product of its schedule."""
    p = []
    doc = json.loads(text)
    if abs(doc["final_time"] - final_time) > 1e-12 * max(1.0, final_time):
        p.append(f"final_time {doc['final_time']}, schedule {final_time}")
    if sum(f["dim"] for f in doc["factors"]) != o.dim:
        p.append("factor dims do not add up to the algebra dim")
    p += check_propagation(pairs(doc["total"]),
                           [pairs(f["matrix"]) for f in doc["factors"]],
                           reference)
    return p


def listed(problem):
    return [problem] if problem else []


def self_check(o, st, prop, report, prop_report, roundtrip):
    """Names of the corruptions that the checks failed to flag.

    ``o``, ``st`` and ``prop`` = (total, factors, reference, final_time) are
    a correct analysis and propagation of a system with two simple ideals,
    ``report`` and ``prop_report`` the matching CLI texts.  Each is first
    required to pass; then each check gets a copy corrupted in the way it
    exists to catch, and must report the problem it is named for.
    """
    total, factors, reference, final_time = prop
    rng = np.random.default_rng(0)
    junk = rng.standard_normal((3, o.n, o.n)) + 1j * rng.standard_normal(
        (3, o.n, o.n))
    junk = junk - junk.conj().transpose(0, 2, 1)
    doc = json.loads(report)
    pdoc = json.loads(prop_report)
    f0, rest = factors[0], tuple(factors[1:])
    i0, i1 = st.ideals[0], st.ideals[1]

    def edited(d, **kw):
        return roundtrip(json.dumps(dict(d, **kw)))

    def struct(**kw):
        return check_structure(o, replace(st, **kw))

    def propagation(total_=total, factors_=factors):
        return check_propagation(total_, factors_, reference)

    flipped = [dict(f, matrix=(-pairs(f["matrix"])).view(float)
                    .reshape(o.n, o.n, 2).tolist()) if k == 0 else f
               for k, f in enumerate(pdoc["factors"])]
    rt_other = roundtrip_problem(report.replace(": ", ":  ", 1), roundtrip)
    rt_zero = roundtrip_problem(
        edited(doc, probe=0).replace('"probe": 0', '"probe": -0'), roundtrip)
    # (problems found, text one of them must contain; None: must be none)
    cases = {
        "good structure": (check_structure(o, st), None),
        "good propagation": (propagation(), None),
        "good structure report": (check_structure_report(o, report), None),
        "good propagation report": (check_propagation_report(
            o, prop_report, reference, final_time), None),
        "good round trip": (listed(roundtrip_problem(report, roundtrip)),
                            None),
        "wrong algebra dim": (struct(dim=st.dim + 1), "algebra dim"),
        "wrong verdict": (struct(verdict="controllable-U"), "verdict"),
        "wrong radical dim": (struct(radical_dim=st.radical_dim + 1),
                              "radical dim"),
        "dropped ideal": (struct(ideals=(i1,)), "simple ideals, oracle"),
        "ideal counted twice": (struct(ideals=(i0, i0)), "do not commute"),
        "non-invariant ideal": (struct(ideals=(junk[:len(i0)], i1)),
                                "not ad-invariant"),
        "non-abelian Cartan": (struct(cartan=i0), "not abelian"),
        "Cartan of the wrong dim": (struct(cartan=st.cartan[:1]),
                                    "Cartan dim"),
        "dropped component": (struct(components=st.components[1:]),
                              "do not span"),
        "total off the expm product": (propagation(
            total_=total @ scipy.linalg.expm(1e-3 * junk[0])), "expm product"),
        "factor with flipped sign": (propagation(factors_=(-f0,) + rest),
                                     "product of its factors"),
        "non-unitary factor": (propagation(factors_=(1.001 * f0,) + rest),
                               "not unitary"),
        "non-commuting factor": (propagation(
            factors_=(scipy.linalg.expm(junk[1]),) + rest), "do not commute"),
        "report with a wrong algebra dim": (check_structure_report(
            o, edited(doc, algebra_dim=doc["algebra_dim"] + 1)), "algebra_dim"),
        "report with a dropped component": (check_structure_report(
            o, edited(doc, components=doc["components"][1:])),
            "simple components"),
        "report with a flipped factor": (check_propagation_report(
            o, edited(pdoc, factors=flipped), reference, final_time),
            "product of its factors"),
        "report with a wrong final time": (check_propagation_report(
            o, edited(pdoc, final_time=final_time + 1.0), reference,
            final_time), "final_time"),
        "report that does not round-trip": (
            listed(rt_other if rt_other != NEGATIVE_ZERO else None),
            "does not survive"),
        "report with a -0 entry, fault F3": (
            listed(rt_zero == NEGATIVE_ZERO and NEGATIVE_ZERO), NEGATIVE_ZERO),
    }
    return [name for name, (problems, needle) in cases.items()
            if (needle is None and problems) or (needle is not None and not any(
                needle in str(p) for p in problems))]
