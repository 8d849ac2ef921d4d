"""The README's library quick start runs as written, and its preset table
matches the presets' rows."""

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


def test_preset_table_lists_each_preset_and_what_it_sweeps():
    from mssl.simulate import _ROWS, preset_names

    section = README.read_text().split("## Simulation presets", 1)[1].split("\n## ", 1)[0]
    cells = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M)
    assert [name for name, _ in cells] == list(preset_names())
    for name, sweeps in cells:
        row = _ROWS[name]
        assert sweeps.startswith(f"{row.sweep} in "), name
        listed = re.match(r"\w+ in \{([^}]*)\}", sweeps)
        if listed:  # a listed grid is the row's default
            values = tuple(float(v) for v in listed.group(1).split(","))
            assert values == row.defaults[f"{row.sweep}_grid"], name
