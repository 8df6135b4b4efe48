"""What one analysis keeps alive: the arrays reachable from a
SystemAnalysis over the benchmark's analysis ladder.

The structure constants of a closure have d^3 entries; they are built
once per analysis and dropped, and no result may keep them or a
restriction of them.  The closure basis is the one (d, n, n) matrix stack
an analysis holds; every other basis is coordinate rows over it.  A
benchmark run keeps every round's analyses, so what each one holds counts
against the run's peak memory: the benchmark multiplies the figure that
``test_ladder_held_bytes`` bounds by its round count.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

from dynlie import LieBasis, analyze_system, control_system

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
workloads = pytest.importorskip("workloads")

LIMIT_BYTES = 256 * 1024


def base_buffers(obj, found=None, seen=None):
    """Distinct base ndarrays that ``obj`` holds, by id.  A LieBasis is
    walked by what it stores, not by the arrays ``mats`` and ``vecs``
    compute on access."""
    found = {} if found is None else found
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return found
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj
    elif isinstance(obj, LieBasis):
        for name in LieBasis.__slots__:
            base_buffers(getattr(obj, name), found, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            base_buffers(getattr(obj, f.name), found, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            base_buffers(item, found, seen)
    return found


@pytest.fixture(scope="module")
def ladder():
    """(name, analysis, held buffers) over the analysis ladder."""
    out = []
    for name, terms in workloads.AnalyzeLadder.ladder():
        analysis = analyze_system(control_system(terms[0], terms[1:]))
        out.append((name, analysis, list(base_buffers(analysis).values())))
    return out


def test_ladder_analyses_keep_no_structure_tensor(ladder):
    for name, analysis, buffers in ladder:
        d = analysis.closure.dim
        for b in buffers:
            # The basis stack is complex (d, n, n) and may have d^3 entries
            # when n = d; the constants and their restrictions are real.
            real = b.dtype.kind == "f"
            assert not (real and b.size == d ** 3), (name, b.shape)
            assert not (real and b.ndim == 3 and len(set(b.shape)) == 1), (
                name, b.shape)


def test_one_matrix_stack_per_analysis(ladder):
    for name, analysis, buffers in ladder:
        basis = analysis.closure.basis
        stacks = [b for b in buffers if b.dtype.kind == "c" and b.ndim == 3]
        assert len(stacks) == 1, (name, [b.shape for b in stacks])
        assert stacks[0] is basis.stack
        assert stacks[0].shape == (basis.dim, basis.n, basis.n)
        # No other matrix either (the splitting element is computed on
        # access): the closure stack and the system's own terms are the
        # only complex buffers.
        system = analysis.system
        own = base_buffers((basis.stack, system.drift, system.controls))
        extra = [b.shape for b in buffers
                 if b.dtype.kind == "c" and id(b) not in own]
        assert not extra, (name, extra)


def test_ladder_held_bytes(ladder):
    total = sum(b.nbytes for _, _, buffers in ladder for b in buffers)
    assert total <= LIMIT_BYTES, total
