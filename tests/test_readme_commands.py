"""The commands README's "Command line" block documents parse with the one CLI parser."""

import re
import shlex
from pathlib import Path

from twoband import SweepSpec
from twoband.cli import _sweep_spec, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_commands():
    """Each ``twoband ...`` line of the "Command line" block, continuations joined."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = re.sub(r"\\\n\s*", " ", block)
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("twoband ")]


def test_every_documented_command_parses():
    commands = _documented_commands()
    assert {argv[0] for argv in commands} == {"sweep", "nh-sweep", "verify", "winding",
                                              "duality", "bound", "ratio"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command in ("sweep", "nh-sweep"):
            assert isinstance(_sweep_spec(args), SweepSpec), argv
