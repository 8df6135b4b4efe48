"""``tools/draw_sweep.py --compare`` as a gate: its exit code on small
hand-written sweeps."""

import importlib.util
import json
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "draw_sweep.py")
spec = importlib.util.spec_from_file_location("draw_sweep", TOOL)
draw_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(draw_sweep)


def ok(draw, **changes):
    line = {"draw": draw, "closure_dim": 6, "verdict": "uncontrollable",
            "ideal_dims": [3, 3], "radical_lines": 0,
            "coefficients": [1.0, 2.0], "frequencies": [3.0, 1.0],
            "blocks": [2, 2], "propagation_error": 1e-15,
            "propagation_problems": []}
    line.update(changes)
    return line


def failed(draw):
    return {"draw": draw, "stage": "primary",
            "error": "SplittingSearchError", "message": "no candidate"}


BEFORE = [ok("a"), ok("b"), failed("c"),
          ok("d", propagation_problems=["factor 0 is not unitary"])]


@pytest.mark.parametrize("after, code", [
    (BEFORE, 0),
    # Only the splitting element differs: reported, not a regression.
    ([ok("a", coefficients=[1.0, 3.0], frequencies=[4.0, 2.0])]
     + BEFORE[1:], 0),
    # A failure mended, an old mismatch kept.
    ([ok("a"), ok("b"), ok("c"), BEFORE[3]], 0),
    ([ok("a"), failed("b")] + BEFORE[2:], 1),
    ([ok("a", ideal_dims=[6])] + BEFORE[1:], 1),
    ([ok("a", radical_lines=1)] + BEFORE[1:], 1),
    ([ok("a", propagation_problems=["total differs"])] + BEFORE[1:], 1),
])
def test_compare_exit_code(tmp_path, capsys, after, code):
    paths = []
    for name, lines in (("before", BEFORE), ("after", after)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        paths.append(str(path))
    assert draw_sweep.main(["--compare", *paths]) == code
    assert "both succeed on" in capsys.readouterr().out


def test_compare_counts_real_terms(tmp_path, capsys):
    # The before sweep predates the key; both still compare.
    after = [ok("a", real_terms=True), ok("b", real_terms=False),
             dict(failed("c"), real_terms=True), BEFORE[3]]
    paths = []
    for name, lines in (("before", BEFORE), ("after", after)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        paths.append(str(path))
    assert draw_sweep.main(["--compare", *paths]) == 0
    out = capsys.readouterr().out
    assert "before: real terms on 0 draws, complex on 0, not recorded on 4" \
        in out
    assert "after: real terms on 2 draws, complex on 1, not recorded on 1" \
        in out


def test_real_terms():
    h, y = np.diag([1.0, -1.0]), np.array([[0, -1j], [1j, 0]])
    assert draw_sweep.real_terms([h, h + 0j])
    assert draw_sweep.real_terms([h, h + 1e-13 * y])
    assert not draw_sweep.real_terms([h, h + 1e-9 * y])
