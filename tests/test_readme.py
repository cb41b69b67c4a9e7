"""The README's Python examples run as written, and its CLI lines parse."""

import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    # the blocks continue one session, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_cli_lines_parse():
    # every flag the README's shell examples use exists, with a value it accepts
    from mixdetect.cli import build_parser

    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("mixdetect ")]
    assert len(lines) >= 6
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            raise AssertionError(f"README line does not parse: {line}") from None
