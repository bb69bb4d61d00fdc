"""Byte-for-byte pins of the README CLI examples.

Each example runs in-process through ``cli.main``; its stdout must equal
the stored golden file and its exit code the listed one. The
``compare-coop-comp --sweep ... --plot`` example is left out: it runs for
tens of seconds and writes a plot file.
"""
from pathlib import Path

import pytest

from revshare import cli

GOLDEN = Path(__file__).parent / "golden"

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
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output_is_byte_identical(name, capsys):
    code, argv = EXAMPLES[name]
    assert cli.main(argv.split()) == code
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
