"""The README's library quick tour runs and does what its comments say."""

import re
from pathlib import Path

import stablegraphs as sg

README = Path(__file__).parent.parent / "README.md"


def test_quick_tour_runs_as_commented():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names: dict = {}
    exec(tour, names)
    p, g = names["p"], names["g"]
    assert sg.dim_graph(p, g) == 9
    assert sg.deg_graph(p, g) == -6
    assert names["pi"] == names["sigma"]
    assert len(names["family"]) == 3
