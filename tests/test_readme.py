"""README's library sketch runs as written.

A removed or renamed public name would otherwise leave the documented
sketch broken unseen.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(sketch, f"{README}:python", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4  # three ratios and the certificate
