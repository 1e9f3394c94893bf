"""Every command line and inline region spec in README.md parses.

The commands are not run: each ``heislab ...`` line (continuation lines
joined) goes through the CLI's argument parser and then through the
parser of each spec it carries: set specs, region specs, demo metrics
and the LO,HI value range.
"""

import re
import shlex
from pathlib import Path

import pytest

from heislab.cli import _demo_metric, build_parser
from heislab.continuum import parse_region
from heislab.perimeter import parse_set_spec

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _command_lines() -> list:
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("heislab "):
                lines.append(line.strip())
    return lines


COMMANDS = _command_lines()
INLINE_REGIONS = re.findall(r"`([a-z-]+:k=[^`]*)`", README)


def test_readme_has_examples():
    assert len(COMMANDS) >= 10
    assert len(INLINE_REGIONS) >= 3


@pytest.mark.parametrize(
    "line", COMMANDS, ids=[f"{i}-{shlex.split(c)[1]}" for i, c in enumerate(COMMANDS)]
)
def test_readme_command_parses(line):
    try:
        args = build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"the CLI rejects the README line: {line}")
    sets = getattr(args, "set", None) or []
    for spec in [sets] if isinstance(sets, str) else sets:
        parse_set_spec(args.k, spec, seed=args.seed)
    if getattr(args, "region", None):
        parse_region(args.region)
    if getattr(args, "demo", None):
        _demo_metric(args.demo)
    if getattr(args, "values", None):
        lo, hi = (int(v) for v in args.values.split(","))
        assert lo <= hi


@pytest.mark.parametrize("spec", INLINE_REGIONS)
def test_readme_inline_region_parses(spec):
    assert parse_region(spec).k >= 1
