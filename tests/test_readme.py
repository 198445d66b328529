"""The README's Library example runs and prints what its comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    code = blocks[0]
    expected = [line.partition("#")[2].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected == ["converged_t 2.0000000055879354", "coupled_bpp 2.0000000055879354"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
