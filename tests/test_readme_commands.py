"""README against the code: its "Command line" block parses with the one CLI parser,
and its model registry names the registry's entries and the sweep table's quantities."""

import re
import shlex
from pathlib import Path

from twoband import SweepSpec
from twoband.cli import _sweep_spec, build_parser
from twoband.models import MODELS
from twoband.sweeps import LOSSY_QUANTITIES, QUANTITIES

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


def _registry_section():
    return README.read_text(encoding="utf-8").split("## Models\n", 1)[1].split("\n## ", 1)[0]


def test_registry_table_names_every_model():
    names = re.findall(r"^\| `([^`]+)` \|", _registry_section(), re.M)
    assert names == list(MODELS)


def test_registry_text_lists_the_sweep_quantities():
    text = " ".join(_registry_section().split())
    hermitian = re.search(r"every sweep quantity of the table `sweeps.QUANTITIES`, in its order "
                          r"\(([^)]*)\)", text)
    assert re.findall(r"`([^`]+)`", hermitian.group(1)) == list(QUANTITIES)
    lossy = re.search(r"so it supports (`[^`]+` and `[^`]+`) only", text)
    assert tuple(re.findall(r"`([^`]+)`", lossy.group(1))) == LOSSY_QUANTITIES
    assert not MODELS["nh-ssh"].hermitian
