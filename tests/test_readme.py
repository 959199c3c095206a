import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _same(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return float(got) == pytest.approx(float(want), abs=1e-12)
    except ValueError:
        return False


def test_python_example_runs_and_prints_its_comments(capsys):
    # every `print(...)  # values` line of the README's python blocks must print those values
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        promised = [line.split("#", 1)[1].split() if "#" in line else None
                    for line in block.splitlines() if line.startswith("print(")]
        assert len(printed) == len(promised)
        for out, want in zip(printed, promised):
            if want is not None:
                got = out.split()
                assert len(got) == len(want) and all(map(_same, got, want)), (out, want)
