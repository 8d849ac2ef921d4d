"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names: dict = {}
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), names)
    s = names["s"]
    assert s.data.n == 100 and 0.0 <= s.alpha_hat <= 1.0
    assert s.alpha_grid in np.linspace(0.0, 1.0, 51)
    for beta in (names["beta"], names["beta_grid"]):
        assert beta.shape == (20,) and np.all(np.isfinite(beta))
