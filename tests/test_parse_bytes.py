"""What the command line prints while it parses is pinned byte for byte.

Each case runs ``main(argv)`` in-process at a fixed terminal width of 80
columns and compares the sha256 of its stdout and of its stderr, and its
exit code (``SystemExit`` or returned), with a table recorded from the
commit before each command got a parser of its own, when one parser with
a subparser per command parsed every argv.  The cases cover top-level and
per-command help, a missing or unknown command or choice, stray and
unknown arguments, an abbreviated option and the model source's mutual
exclusion.  The last six cases, forms that the option table hands over to
argparse, were recorded from the commit before that table read the
documented form, when argparse read every argv.
"""

import hashlib

import pytest

from fellkit.cli import main


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = sha256("")
CASES = {
    "--help": (
        ["--help"], 0,
        "b4b14fec212b214fe290773c95426b9533dacee07669ac0c2bc08565f91b1e32",
        EMPTY),
    "no-arguments": (
        [], 2,
        EMPTY,
        "6c0cf784f1c1d39764af1a6f7cc57540d5df0a98d489a4b9a13b8992b5bdbb18"),
    "bogus": (
        ["bogus"], 2,
        EMPTY,
        "e8637895221a0766462083b728bca0b8be8c6c012c93fb8233eb685da93b5efc"),
    "-h report": (
        ["-h", "report"], 0,
        "b4b14fec212b214fe290773c95426b9533dacee07669ac0c2bc08565f91b1e32",
        EMPTY),
    "--version": (
        ["--version"], 2,
        EMPTY,
        "6c0cf784f1c1d39764af1a6f7cc57540d5df0a98d489a4b9a13b8992b5bdbb18"),
    "report --help": (
        ["report", "--help"], 0,
        "e2b74d4f3da00c9ac5ca4bc496f5e0ac6c9e8fcc03d22920138a60addb89658d",
        EMPTY),
    "check --help": (
        ["check", "--help"], 0,
        "6012d374dbc9b790caa5b901a779765f6391c35c9a9d3b479b230613ffadccf7",
        EMPTY),
    "phi --help": (
        ["phi", "--help"], 0,
        "01a44e302c2021c72695c8dd2dd0872e588ac10c4f6d655a7b5eb79fc56ba56e",
        EMPTY),
    "generate --help": (
        ["generate", "--help"], 0,
        "4750ab96c008917ed8b9d6d298f46485ad2c5a13fcd48a6f82b2e3cb800eb835",
        EMPTY),
    "report --he": (
        ["report", "--he"], 0,
        "e2b74d4f3da00c9ac5ca4bc496f5e0ac6c9e8fcc03d22920138a60addb89658d",
        EMPTY),
    "check": (
        ["check"], 2,
        EMPTY,
        "6a9df27577ff6f57579a574672d7f3fd2d37402635b6d085360311a4b10f69b1"),
    "check bogus": (
        ["check", "bogus", "--preset", "fourpoint"], 2,
        EMPTY,
        "5d48aabe0d81a864b2993bfc6254fee921bd64b5541b770aec4406ae3cfb2443"),
    "stray positional": (
        ["report", "--preset", "fourpoint", "extra"], 2,
        EMPTY,
        "dfbfcc481af0b7d2ee056d596e711d65204643e4b31c1c3e31390d8e138424d1"),
    "unknown option": (
        ["report", "--bogus", "--preset", "fourpoint"], 2,
        EMPTY,
        "b5237b2cfd086a20e61c01e85594d6e948840ebb3edea764b40ec67edee984bc"),
    "abbreviated option": (
        ["report", "--inp", "MODEL"], 2,
        EMPTY,
        "5fe13c25bb90862cf9cf5ad5ae4e8cac3e86ccb81c0541c072d02c26d954d250"),
    "bad format": (
        ["report", "--preset", "fourpoint", "--format", "yaml"], 2,
        EMPTY,
        "a7dabd0013254710279bd6557aee53a18e405af3f44e2838958f1d2ec14ae8e7"),
    "bare report": (
        ["report"], 2,
        EMPTY,
        "ef8cb297e15ba58b3f965a44fa0ee5e76d29b77d92c49ffedc24b74bb604529f"),
    "preset and input": (
        ["report", "--preset", "fourpoint", "--input", "x"], 2,
        EMPTY,
        "58461d0c8c936688fcfc5db9459207ac8f3c5950aecfc8fa89c41c4a1ca765e7"),
    # forms that argparse reads and the option table hands over to it
    "--input=MODEL": (
        ["report", "--input=MODEL"], 2,
        EMPTY,
        "5fe13c25bb90862cf9cf5ad5ae4e8cac3e86ccb81c0541c072d02c26d954d250"),
    "abbreviated preset": (
        ["report", "--prese", "fourpoint"], 0,
        "e45b5f4b1b6af41cccf20ec8b1096900fcc27e981d47129a072ee7b4d91d5151",
        EMPTY),
    "repeated option": (
        ["report", "--preset", "fourpoint", "--seed", "1", "--seed", "2"], 0,
        "e45b5f4b1b6af41cccf20ec8b1096900fcc27e981d47129a072ee7b4d91d5151",
        EMPTY),
    "suite after the options": (
        ["check", "--preset", "fourpoint", "axioms"], 0,
        "7c61ba6babc75b69ff2ba852bfc4d0bd3e20458e0c9054b4eeca3ce5676ba99b",
        EMPTY),
    "negative seed": (
        ["report", "--preset", "flow", "--seed", "-1"], 2,
        EMPTY,
        "5e670cbd264aa9025f021c4952a0149fae22deaa494e6735557701192ba579d5"),
    "negative eps": (
        ["report", "--preset", "fourpoint", "--eps", "-1e-3"], 2,
        EMPTY,
        "afb620c0a43983b752a545792bc05d142b67c097ded8b8731f487213b0ec6225"),
}


@pytest.mark.parametrize("name", CASES)
def test_parsing_bytes_are_unchanged(name, tmp_path, monkeypatch, capsys):
    argv, exit_code, out_digest, err_digest = CASES[name]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # no file named MODEL
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, sha256(out), sha256(err)) == (exit_code, out_digest, err_digest)
