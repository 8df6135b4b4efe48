"""What one analysis keeps alive: the arrays reachable from a
SystemAnalysis over the benchmark's analysis ladder.

The structure constants of a closure have d^3 entries; they are built
once per analysis and dropped, and no result may keep them or a
restriction of them.  A benchmark run keeps every round's analyses, so
what each one holds counts against the run's peak memory.
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

LIMIT_BYTES = 640 * 1024


def base_buffers(obj, found=None, seen=None):
    """Distinct base ndarrays reachable from ``obj``, by id."""
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
        for arr in (obj.mats, obj.vecs):
            base_buffers(arr, found, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            base_buffers(getattr(obj, f.name), found, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            base_buffers(item, found, seen)
    return found


def test_ladder_analyses_keep_no_structure_tensor():
    total = 0
    for name, terms in workloads.AnalyzeLadder.ladder():
        analysis = analyze_system(control_system(terms[0], terms[1:]))
        d = analysis.closure.dim
        buffers = base_buffers(analysis).values()
        for b in buffers:
            # Basis stacks are complex (d, n, n) and may have d^3 entries
            # when n = d; the constants and their restrictions are real.
            real = b.dtype.kind == "f"
            assert not (real and b.size == d ** 3), (name, b.shape)
            assert not (real and b.ndim == 3 and len(set(b.shape)) == 1), (
                name, b.shape)
        total += sum(b.nbytes for b in buffers)
    assert total <= LIMIT_BYTES, total
