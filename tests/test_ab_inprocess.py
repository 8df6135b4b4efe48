"""``tools/ab_inprocess.py`` on a 100-segment two-spin schedule, comparing
a checkout with itself."""

import importlib.util
import os
import sys

import numpy as np

from dynlie import ControlSchedule, dynamics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
TOOL = os.path.join(ROOT, "tools", "ab_inprocess.py")
spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
ab_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inprocess)


def test_checkout_against_itself():
    workloads = ab_inprocess.load_workloads()
    terms = workloads.two_spin()
    system = workloads.to_system(terms)
    decomp = dynamics.analyze_system(system).decomposition
    segs = workloads.schedule(np.random.default_rng(100), 2, 100)
    inputs = [("two-spin", terms, segs, system, decomp,
               ControlSchedule(tuple(segs)))]
    result, names = ab_inprocess.compare(ROOT, workloads.PropagateLong, 3,
                                         inputs)
    assert names == ["two-spin"]
    for side in ab_inprocess.SIDES:
        assert len(result[side]["rounds"]) == 3
        assert [len(t) for t in result[side]["times"]] == [3]
        assert result[side]["failed"] == 0
        assert result[side]["problems"] == []
    # The parent side ran the copy, and the operations look this
    # checkout's module up again afterwards.
    assert f"{ab_inprocess.COPY}.dynamics" in sys.modules
    assert workloads.dynamics is dynamics
    lines = ab_inprocess.table(result, names)
    assert lines[0].split() == ["operation", "parent", "ms", "change", "ms",
                                "change/parent"]
    assert [line.split()[0] for line in lines[1:3]] == ["two-spin", "round"]
    assert float(lines[1].split()[-1]) > 0
    assert lines[3:] == ["parent: 0 failed, 0 check problems",
                         "change: 0 failed, 0 check problems"]


def test_rejects_bad_arguments(tmp_path):
    assert ab_inprocess.main(["--parent", str(tmp_path), "--workload",
                              "propagate-long", "--rounds", "1"]) == 2
    assert ab_inprocess.main(["--parent", ROOT, "--workload", "none",
                              "--rounds", "1"]) == 2
    assert ab_inprocess.main(["--parent", ROOT, "--workload",
                              "propagate-long", "--rounds", "0"]) == 2
