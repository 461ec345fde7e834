"""Byte-for-byte replay of recorded CLI runs.

`golden/cases.json` lists each case's argv and exit code; `golden/<name>.txt`
holds what it wrote (stdout, or the `--out` file when argv names `{out}`).
A refactor that keeps the JSON, CSV and table contract passes unchanged.
After a deliberate output change, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import io
import json
import pathlib
import tempfile

import pytest

from modulirc.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _replay(case, tmp_dir):
    out_path = tmp_dir / "out.txt"
    argv = [arg.replace("{out}", str(out_path)) for arg in case["argv"]]
    buf = io.StringIO()
    code = main(argv, out=buf)
    if "{out}" in case["argv"]:
        assert buf.getvalue() == ""
        return code, out_path.read_text(encoding="utf-8")
    return code, buf.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case, tmp_path):
    code, text = _replay(case, tmp_path)
    assert code == case["exit"]
    assert text == (GOLDEN / f"{case['name']}.txt").read_text(encoding="utf-8")


def _rewrite():
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            code, text = _replay(case, pathlib.Path(tmp))
            case["exit"] = code
            (GOLDEN / f"{case['name']}.txt").write_text(text, encoding="utf-8")
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=1) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    _rewrite()
