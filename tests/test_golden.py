"""Byte-for-byte pins of the README CLI examples and of every solver.

Each example runs in-process through ``cli.main``; its stdout must equal
the stored golden file and its exit code the listed one. The README
examples come first. The rows after them pin one ``solve`` of each
scenario the README leaves out (one with a degenerate second CP) and the
``compare-coop-comp`` and ``n-scaling`` reports, whose coop-comp rows
print the nested oracle outcome's utilities. The ``sweep-*`` rows after
those pin the sweep renderer where a row's values change their form: a
regulated-cooperative table whose ``degenerate`` flips as r crosses the
costs, per-CP csv rows with a degenerate CP, a symmetric table whose row
shape changes with n, a fixed-public-effort csv whose shares move with
``a1_bar``, and sweeps of the ``compare-public-private`` and ``n-scaling``
reports. The README's ``compare-coop-comp --sweep ... --plot`` example
writes a plot file, so ``test_cli.py``'s plot test pins it, stdout and SVG.
The ``*-default-scenario`` rows leave out the one scenario ``nbs`` and
``shapley`` take and must print their README example's golden. The
``*-custom-negative`` rows pin the nested bargain where a negative
disagreement utility can give the Nash product two peaks, and the
``nbs-regulated-cooperative-custom`` row pins it with positive custom
disagreement utilities.
"""
import re
from pathlib import Path

import pytest

from revshare import cli
from test_cli import PLOT_EXAMPLES

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

EXAMPLES = {
    "solve-symmetric-competitive": (
        0, "solve --scenario symmetric-competitive --r 10 --c 0.5 --n 2"),
    "solve-regulated-cooperative-json": (
        0, "solve --scenario regulated-cooperative --r 10 --c 0.5,1.0 --format json"),
    "sweep-symmetric-competitive-n": (
        0, "sweep --scenario symmetric-competitive --r 10 --c 0.5 "
           "--sweep n:1:10:10 --format csv"),
    "compare-public-private": (
        0, "compare --scenario compare-public-private --r 10 --c 0.5,1.0"),
    "shapley-regulated-cooperative": (
        0, "shapley --scenario regulated-cooperative --r 10 --c 0.5,1.0 --branch isp1"),
    "nbs-regulated-cooperative-zero": (
        0, "nbs --scenario regulated-cooperative --r 10 --c 0.5,1.0 --disagreement zero"),
    "verify": (0, "verify"),
    "solve-asymmetric-competitive-degenerate": (
        0, "solve --scenario asymmetric-competitive --r 1 --c 2,3"),
    "solve-public-private": (
        0, "solve --scenario public-private --r 10 --c 0.5,1.0"),
    "solve-public-private-regulated": (
        0, "solve --scenario public-private-regulated --r 10 --c 0.5,1.0 --a1-bar 0.5"),
    "solve-symmetric-cooperative": (
        0, "solve --scenario symmetric-cooperative --r 10 --c 0.5 --n 3"),
    "solve-regulated-competitive-csv": (
        0, "solve --scenario regulated-competitive --r 10 --c 0.5,1.0 --format csv"),
    "solve-regulated-cooperative-isp2": (
        0, "solve --scenario regulated-cooperative --r 10 --c 0.5,1.0 --branch isp2"),
    "solve-fixed-public-effort-cooperative": (
        0, "solve --scenario fixed-public-effort-cooperative --r 10 --c 0.5,1.0 --a1-bar 0.5"),
    "solve-multi-cp-competitive": (
        0, "solve --scenario multi-cp-competitive --r 10 --c 0.5,1.0 --r2 4"),
    "solve-multi-cp-cooperative-json": (
        0, "solve --scenario multi-cp-cooperative --r 10 --c 0.5,1.0 --r2 0.4 --format json"),
    "compare-coop-comp": (
        0, "compare --scenario compare-coop-comp --r 10 --c 0.5,1.0"),
    "compare-n-scaling": (
        0, "compare --scenario n-scaling --r 10 --c 0.5"),
    "sweep-regulated-cooperative-r": (
        0, "sweep --scenario regulated-cooperative --r 10 --c 0.5,1.0 --sweep r:0.25:3:12"),
    "sweep-multi-cp-cooperative-r2": (
        0, "sweep --scenario multi-cp-cooperative --r 10 --c 0.5,1.0 --r2 4 "
           "--sweep r2:0.1:2:8 --format csv"),
    "sweep-symmetric-cooperative-n": (
        0, "sweep --scenario symmetric-cooperative --r 10 --c 0.5 --sweep n:1:4:4"),
    "sweep-fixed-public-effort-cooperative-a1-bar": (
        0, "sweep --scenario fixed-public-effort-cooperative --r 10 --c 0.5,1.0 "
           "--sweep a1-bar:0:2:6 --format csv"),
    "sweep-compare-public-private-c1": (
        0, "sweep --scenario compare-public-private --r 10 --c 0.5,1.0 "
           "--sweep c1:0.2:2:6 --format csv"),
    "sweep-n-scaling-r": (
        0, "sweep --scenario n-scaling --r 10 --c 0.5 --n 3 --sweep r:1:20:4"),
    "shapley-default-scenario": (0, "shapley --r 10 --c 0.5,1.0 --branch isp1"),
    "nbs-default-scenario": (0, "nbs --r 10 --c 0.5,1.0 --disagreement zero"),
    "nbs-regulated-cooperative-custom": (
        0, "nbs --scenario regulated-cooperative --r 10 --c 0.5,1.0 --disagreement=0.2,0.3"),
    "nbs-regulated-cooperative-custom-negative": (
        0, "nbs --scenario regulated-cooperative --r 10 --c 0.5,1.0 --disagreement=-0.5,0.3"),
    "compare-coop-comp-custom-negative": (
        0, "compare --scenario compare-coop-comp --r 10 --c 0.5,1.0 --disagreement=-0.5,-0.2"),
}
# Rows that print what another row prints, and the golden file they share.
SHARED_GOLDEN = {"shapley-default-scenario": "shapley-regulated-cooperative",
                 "nbs-default-scenario": "nbs-regulated-cooperative-zero"}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output_is_byte_identical(name, capsys):
    code, argv = EXAMPLES[name]
    assert cli.main(argv.split()) == code
    expected = (GOLDEN / f"{SHARED_GOLDEN.get(name, name)}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def _readme_commands() -> list[str]:
    """Each ``revshare`` command in README's sh blocks, without the program
    name, its comments and any ``--plot <file>``."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                            re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = re.sub(r"--plot \S+", "", line.split("#")[0]).split()
            if words[:1] == ["revshare"]:
                commands.append(" ".join(words[1:]))
    return commands


def test_every_readme_example_is_pinned():
    pinned = {argv for _, argv in EXAMPLES.values()} | {argv for argv, _ in PLOT_EXAMPLES}
    commands = _readme_commands()
    assert commands
    assert [command for command in commands if command not in pinned] == []
