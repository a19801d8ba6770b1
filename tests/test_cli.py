import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fellkit
import fellkit.algebra
import fellkit.cli
import fellkit.cocycle
import fellkit.dynamics
import fellkit.embedding
import fellkit.fellbundle
from fellkit.cli import (
    CHECKS,
    COMMANDS,
    OPTIONS,
    PHI,
    PRESETS,
    SOURCES,
    SUITES,
    build_parser,
    main,
    pipeline,
    read_argv,
    run_phi,
)
from fellkit.cocycle import NotATwistError, make_twist
from fellkit.dynamics import covariance_group_from_frame
from fellkit.embedding import bridge_round_trip
from fellkit.fellbundle import CStarBundle, build_semidirect_bundle, check_fell_axioms
from fellkit.groupoid import cycle_bisection
from fellkit.presets import flow_frame, random_symmetric_frame
from fellkit.serialize import model_from_json, model_to_json, loads

from helpers import TWISTED_5, twist_from_phases
from test_parse_bytes import CASES as PARSE_CASES


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


def test_generate_then_check_composes(tmp_path):
    code, model_file = run(
        tmp_path, "generate", "--preset", "flow", "--points", "3",
        "--dim", "2", "--seed", "5", name="model.json",
    )
    assert code == 0
    code, report_file = run(
        tmp_path, "check", "axioms", "--input", str(model_file),
    )
    assert code == 0
    doc = json.loads(report_file.read_text())
    assert doc["pass"] and doc["check"] == "axioms"


def test_generate_parse_round_trip_no_information_loss(tmp_path):
    code, model_file = run(
        tmp_path, "generate", "--preset", "semidirect", "--points", "3",
        "--dim", "2", "--seed", "9", name="model.json",
    )
    assert code == 0
    doc = loads(model_file.read_text())
    model, generator = model_from_json(doc)
    # serializing the parsed model reproduces the file byte for byte
    code, second = run(
        tmp_path, "generate", "--preset", "semidirect", "--points", "3",
        "--dim", "2", "--seed", "9", name="model2.json",
    )
    assert model_file.read_bytes() == second.read_bytes()
    assert model.fibre_dims == (2, 2, 2)
    assert generator is not None


def test_report_byte_determinism(tmp_path):
    _, r1 = run(tmp_path, "report", "--preset", "fourpoint", "--seed", "0",
                name="r1.json")
    _, r2 = run(tmp_path, "report", "--preset", "fourpoint", "--seed", "0",
                name="r2.json")
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["pass"]
    assert {c["check"] for c in doc["checks"]} == {
        "axioms", "pair", "cocycle", "theorem-3.13", "generation",
        "phi-roundtrip",
    }


def test_semidirect_report_survives_failed_cocycle_extraction(tmp_path):
    # the random frame has holonomy round the generator's cycle, so no twist
    # can be read off Φ: cocycle and the round trip fail, the rest still report
    code, out = run(tmp_path, "report", "--preset", "semidirect")
    assert code == 1
    doc = json.loads(out.read_text())
    verdicts = {c["check"]: c["pass"] for c in doc["checks"]}
    assert verdicts == {
        "axioms": True, "pair": True, "cocycle": False, "theorem-3.13": True,
        "generation": True, "phi-roundtrip": False,
    }
    cocycle = next(c for c in doc["checks"] if c["check"] == "cocycle")
    assert "error" in cocycle


def test_cocycle_check_conjugates_by_the_model_frame(tmp_path):
    """A model twist is scalar, so α_g = Ad u_g fixes its values under any
    frame: on a scalar coboundary and on a phase on one pair and its mirror,
    `check cocycle` passes or fails with axiom 3, and its residual is axiom
    3's.  A diagonal coboundary that is not scalar, which conjugation would
    move off the diagonal, is no model twist."""
    rng = np.random.default_rng(3)
    theta = rng.uniform(-1, 1, size=(3, 3))
    coboundary = twist_from_phases(theta - theta.T, fibre_dim=2)
    phase = make_twist(3, 2, {((0, 1), (1, 2)): np.exp(0.9j) * np.eye(2),
                              ((2, 1), (1, 0)): np.exp(-0.9j) * np.eye(2)})
    frame = random_symmetric_frame(3, 2, rng)
    for twist, passes in ((coboundary, True), (phase, False)):
        model = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame, twist=twist)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(model, cycle_bisection(3))))
        code, out = run(tmp_path, "check", "cocycle", "--input", str(path))
        cocycle = json.loads(out.read_text())
        code, out = run(tmp_path, "check", "axioms", "--input", str(path))
        axiom_3 = json.loads(out.read_text())["details"]["axioms"][2]
        assert cocycle["pass"] == axiom_3["pass"] == passes
        assert cocycle["residual"] == axiom_3["residual"]
        assert cocycle["details"] == {"source": "model twist"}
    t1, t2 = (rng.uniform(-1, 1, size=(3, 3)) for _ in range(2))
    t1, t2 = t1 - t1.T, t2 - t2.T
    values = {((x, y), (y, z)): np.diag(np.exp(1j * np.array([
        t[x, y] + t[y, z] - t[x, z] for t in (t1, t2)])))
        for x in range(3) for y in range(3) for z in range(3)}
    with pytest.raises(NotATwistError, match="is not scalar"):
        make_twist(3, 2, values)


def test_report_runs_the_axiom_suite_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_fell_axioms(*args, **kwargs)

    monkeypatch.setattr(fellkit.embedding, "check_fell_axioms", counted)
    flow = ("--preset", "flow", "--points", "4", "--dim", "2")
    code, report = run(tmp_path, "report", *flow)
    assert code == 0
    assert len(calls) == 1
    # `check pair` on its own runs the suite first; the pair stage itself
    # reads no rng, so the checks agree
    code, pair = run(tmp_path, "check", "pair", *flow, name="pair.json")
    assert code == 0
    assert len(calls) == 2
    checks = json.loads(report.read_text())["checks"]
    assert checks[1] == json.loads(pair.read_text())
    # on a model twist the cocycle entry reads axiom 3's residual: the one
    # n⁴ identity loop runs once, in the axiom suite
    identity, identities = fellkit.cocycle.cocycle_identity_residual, []
    for name, module in list(sys.modules.items()):
        if name.startswith("fellkit") and getattr(module, "cocycle_identity_residual",
                                                  None) is identity:
            monkeypatch.setattr(module, "cocycle_identity_residual",
                                lambda *args: identities.append(args) or identity(*args))
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(TWISTED_5))
    calls.clear()
    code, report = run(tmp_path, "report", "--input", str(path), name="twisted.out")
    assert code == 1
    assert len(calls) == len(identities) == 1
    assert len(identities[0]) == 2  # (the twist's scalars, live): the suite's call
    cocycle = next(c for c in json.loads(report.read_text())["checks"]
                   if c["check"] == "cocycle")
    assert not cocycle["pass"] and cocycle["residual"] == 0.6857956149109027


@pytest.mark.parametrize("model", [
    ("--preset", "flow", "--points", "4", "--dim", "2"),
    ("--preset", "flow", "--points", "8", "--dim", "1"),
    ("--preset", "imprimitivity", "--dims", "3,1,4,2"),
], ids=["flow-4x2", "flow-8x1", "imprimitivity-3,1,4,2"])
def test_report_pair_entry_does_not_depend_on_the_seed(tmp_path, model):
    """The expectation contract and the axioms are decided, not sampled.  The
    pair entry is the same for every seed, although the flow frames differ
    by seed; on one model file, so is the axioms entry, to the last bit."""
    code, path = run(tmp_path, "generate", *model, name="model.json")
    assert code == 0
    entries = {"pair": set(), "axioms": set()}
    for seed in range(10):
        for argv, check in ((model, "pair"), (("--input", str(path)), "axioms")):
            code, out = run(tmp_path, "report", *argv, "--seed", str(seed))
            assert code == 0
            (entry,) = [c for c in json.loads(out.read_text())["checks"]
                        if c["check"] == check]
            entries[check].add(json.dumps(entry))
    assert [len(e) for e in entries.values()] == [1, 1]


def fresh_run(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports this fellkit;
    it must exit 0."""
    src = str(Path(fellkit.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          check=True)


def fresh_python(script: str) -> list[str]:
    """The words ``script`` prints in a fresh interpreter that imports this
    fellkit."""
    return fresh_run("-c", script).stdout.decode().split()


def test_report_on_a_model_file_without_generator_draws_nothing(tmp_path):
    """Only the random presets draw: a report on an imprimitivity model file,
    and a report and ``check theorem-3.13`` on a flow 4×2 model file, never
    import numpy.random."""
    calls = []
    for name, preset in (("impr.json", ("imprimitivity", "--dims", "3,1,4,2")),
                         ("flow.json", ("flow", "--points", "4", "--dim", "2"))):
        code, path = run(tmp_path, "generate", "--preset", *preset, name=name)
        assert code == 0
        calls.append(["report", "--input", str(path)])
    calls.append(["check", "theorem-3.13", "--input", str(path)])
    out = str(tmp_path / "out.json")
    script = "import sys\nfrom fellkit.cli import main\n" + "".join(
        f"print(main({argv + ['--out', out]!r}), 'numpy.random' in sys.modules)\n"
        for argv in calls)
    assert fresh_python(script) == ["0", "False"] * 3


def test_report_theorem_and_round_trip_entries_do_not_depend_on_the_seed(tmp_path):
    """Neither theorem-3.13 nor the Φ round trip draws: on one model file
    their entries are the same for seeds 0–9, also at an eps (0.6) where
    some two-block mixers normalize and some do not."""
    code, path = run(tmp_path, "generate", "--preset", "flow", "--points", "4",
                     "--dim", "2", name="model.json")
    assert code == 0
    for eps, exit_code in (("1e-9", 0), ("0.6", 1)):
        entries = set()
        for seed in range(10):
            code, out = run(tmp_path, "report", "--input", str(path), "--eps", eps,
                            "--seed", str(seed))
            assert code == exit_code
            entries.add(json.dumps([
                c for c in json.loads(out.read_text())["checks"]
                if c["check"] in ("theorem-3.13", "phi-roundtrip")]))
        assert len(entries) == 1 and len(json.loads(entries.pop())) == 2


def test_parser_is_built_once_and_not_at_import(tmp_path):
    assert fresh_python("import fellkit, fellkit.cli\n"
                        "print(fellkit.cli.build_parser.cache_info().currsize)") == ["0"]
    fellkit.cli.build_parser.cache_clear()
    for _ in range(2):  # the option table reads the documented form
        assert run(tmp_path, "check", "axioms", "--preset", "fourpoint")[0] == 0
    assert fellkit.cli.build_parser.cache_info().misses == 0
    for _ in range(2):  # an abbreviation is argparse's
        assert run(tmp_path, "check", "axioms", "--prese", "fourpoint")[0] == 0
    assert fellkit.cli.build_parser.cache_info().misses == 1


def test_first_command_builds_its_own_parser_and_freezes_once(tmp_path):
    """Importing the CLI builds and freezes nothing.  The first command
    freezes the start-up heap and, in the documented form, builds no parser;
    a command's own parser, once built, is kept, a second command freezes
    nothing more, and top-level help builds the full parser."""
    out = str(tmp_path / "out.json")
    script = textwrap.dedent(f"""\
        import contextlib, gc, io
        import fellkit.cli as cli
        cache = cli.build_parser.cache_info
        print(gc.get_freeze_count(), cache().currsize)
        argv = ["report", "--preset", "fourpoint", "--out", {out!r}]
        print(cli.main(argv), cache().currsize)
        frozen = gc.get_freeze_count()
        cli.build_parser("report")
        print(frozen > 0, cache().currsize, cache().misses)
        print(cli.main(argv), gc.get_freeze_count() == frozen)
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.suppress(SystemExit):
            cli.main(["--help"])
        cli.build_parser()
        print(cache().currsize, cache().misses)
        """)
    assert fresh_python(script) == ["0", "0", "0", "0", "True", "1", "1", "0", "True",
                                    "2", "2"]


def test_a_report_on_a_model_file_never_loads_argparse(tmp_path):
    """``report --input MODEL`` is read from the option table: the process
    builds no parser and never imports argparse, gettext or locale."""
    model = tmp_path / "model.json"
    assert run(tmp_path, "generate", "--preset", "flow", name=model.name)[0] == 0
    argv = ["report", "--input", str(model), "--out", str(tmp_path / "report.json")]
    script = textwrap.dedent(f"""\
        import sys
        import fellkit.cli as cli
        print(cli.main({argv!r}), cli.build_parser.cache_info().misses)
        print(*(name in sys.modules for name in ("argparse", "gettext", "locale")))
        """)
    assert fresh_python(script) == ["0", "0", "False", "False", "False"]


def argparse_reads(argv: list[str]) -> dict | None:
    """``vars`` of what the command's parser (the full parser for any other
    first word) returns for ``argv``, or None where it exits."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(command).parse_args(
                argv if command is None else argv[1:]))
        except SystemExit:
            return None


def same_fields(read: SimpleNamespace, parsed: dict) -> bool:
    """Equal field by field, a NaN --eps included."""
    return repr(sorted(vars(read).items())) == repr(sorted(parsed.items()))


VALUES = st.one_of(
    st.sampled_from(["0", "7", "-1", "1.5", "-1e-3", "1e-3", "nan", "inf", "",
                     "x", "-", "--", "-h", "--preset", " 3", "1_0", "2,1,3",
                     "bogus", *PRESETS, *OPTIONS["format"].choices]),
    st.integers().map(str), st.floats().map(repr), st.text(max_size=3))
SUITE_NAMES = sorted({*CHECKS, *PHI})
TOKENS = st.one_of(
    # what a reader that reads too much would take: a "-" value, a second
    # source, a value outside the choices
    st.sampled_from(["-1", "-1e-3", "-x", "--", "-h", "--preset", "--input", "bogus"]),
    VALUES,
    st.sampled_from([f"--{name}" for name in OPTIONS]),
    st.sampled_from([f"--{name[:k]}" for name in OPTIONS for k in range(1, len(name))]),
    st.tuples(st.sampled_from(list(OPTIONS)), VALUES).map(lambda nv: "--{}={}".format(*nv)),
    st.sampled_from(["-h", "--help", "--", "bogus", *COMMANDS, *SUITE_NAMES]))


def option_values(name: str):
    """Values of ``--name`` in the documented form: none starts with "-"."""
    option = OPTIONS[name]
    if option.choices is not None:
        return st.sampled_from(option.choices)
    if option.type is int:
        return st.integers(min_value=0).map(str)
    if option.type is float:
        return st.floats(min_value=0).map(repr) | st.just("nan")
    return st.text(max_size=6).filter(lambda text: not text.startswith("-"))


@st.composite
def documented_argv(draw) -> list[str]:
    """``COMMAND [SUITE] (--name VALUE)…`` with exactly one model source."""
    command = draw(st.sampled_from(list(COMMANDS)))
    argv = [command]
    if command in SUITES:
        argv.append(draw(st.sampled_from(list(SUITES[command]))))
    names = draw(st.lists(st.sampled_from([n for n in OPTIONS if n not in SOURCES]),
                          unique=True))
    for name in draw(st.permutations([*names, draw(st.sampled_from(SOURCES))])):
        argv += [f"--{name}", draw(option_values(name))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=documented_argv())
def test_the_option_table_reads_every_documented_command(argv):
    read = read_argv(argv)
    assert read is not None and same_fields(read, argparse_reads(argv))


@st.composite
def edited_argv(draw) -> list[str]:
    """A documented command with up to three edits, each up to two drawn
    tokens, or one documented option, in place of up to two tokens: of one
    option's value, name or whole pair, or anywhere.  Near the form is where
    a reader that reads too much goes wrong."""
    argv = draw(documented_argv())
    option = st.sampled_from(list(OPTIONS)).flatmap(
        lambda name: st.tuples(st.just(f"--{name}"), option_values(name)).map(list))
    for _ in range(draw(st.integers(0, 3))):
        at, size = draw(st.integers(0, len(argv))), draw(st.integers(0, 2))
        # an option's value (in twos from the end), or its name, while an
        # earlier edit has left two tokens to aim at
        if len(argv) >= 2 and draw(st.booleans()):
            at = len(argv) - 1 - 2 * draw(st.integers(0, (len(argv) - 2) // 2))
            at -= draw(st.integers(0, 1))
        argv[at:at + size] = draw(st.lists(TOKENS, max_size=2) | option)
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=edited_argv())
def test_the_option_table_reads_what_argparse_reads_or_hands_it_over(argv):
    read = read_argv(argv)
    if read is not None:
        parsed = argparse_reads(argv)
        assert parsed is not None and same_fields(read, parsed), argv


@pytest.mark.parametrize("name", PARSE_CASES)
def test_the_option_table_hands_every_pinned_parse_case_to_argparse(name):
    """Help, errors, abbreviations, ``--name=value``, a repeated option, a
    suite after the options and "-" values are argparse's to read."""
    assert read_argv(PARSE_CASES[name][0]) is None


def test_console_path_reads_sys_argv(tmp_path):
    """``python -m fellkit.cli``, where ``main`` reads ``sys.argv``, as the
    benchmark builds its inputs: the model it generates and the report on
    that model are the bytes of the in-process commands, and its top-level
    help is the pinned one."""
    dims = ["--preset", "imprimitivity", "--dims", "3,1,4,2"]
    console = ("-m", "fellkit.cli")
    fresh_run(*console, "generate", *dims, "--out", str(tmp_path / "model.json"))
    fresh_run(*console, "report", "--input", str(tmp_path / "model.json"),
              "--out", str(tmp_path / "report.json"))
    code, model = run(tmp_path, "generate", *dims, name="model-in-process.json")
    assert code == 0
    assert model.read_bytes() == (tmp_path / "model.json").read_bytes()
    code, report = run(tmp_path, "report", "--input", str(model),
                       name="report-in-process.json")
    assert code == 0
    assert report.read_bytes() == (tmp_path / "report.json").read_bytes()
    help_text = fresh_run(*console, "--help", COLUMNS="80").stdout
    assert hashlib.sha256(help_text).hexdigest() == PARSE_CASES["--help"][2]


@pytest.mark.parametrize("dims", [",".join(map(str, p))
                                  for p in itertools.permutations((1, 2, 3, 4))])
def test_every_ragged_order_generates_and_reports(tmp_path, dims):
    """The ragged-blocks workload's seed can draw any order of the block
    dims 1..4; each generates and reports with exit 0."""
    code, model = run(tmp_path, "generate", "--preset", "imprimitivity", "--dims",
                      dims, name="model.json")
    assert code == 0
    assert run(tmp_path, "report", "--input", str(model))[0] == 0


def test_report_builds_one_covariance_group(tmp_path, monkeypatch):
    """The cocycle, generation and phi-roundtrip stages share the report's
    group, and the round trip recovers none.  Φ is held as its blocks, so
    the whole flow 8×1 report assembles no N×N matrix; `phi build`
    assembles Φ once, to print it.  No stage assembles σ's own U:
    generation reads σ's fibre maps and the round trip Φ's diagonal."""
    groups, assemblies = [], []
    build = fellkit.cli.covariance_group_from_frame
    embed = fellkit.dynamics.FiniteCStarAlgebra.embed_blocks

    def counted_build(*args):
        groups.append(build(*args))
        return groups[-1]

    def counted_embed(self, *args):
        frame = sys._getframe(1)
        assemblies.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return embed(self, *args)

    monkeypatch.setattr(fellkit.cli, "covariance_group_from_frame", counted_build)
    monkeypatch.setattr(fellkit.dynamics.FiniteCStarAlgebra, "embed_blocks",
                        counted_embed)
    flow = ["--preset", "flow", "--points", "8", "--dim", "1"]
    code, out = run(tmp_path, "report", *flow)
    assert code == 0
    assert [c["check"] for c in json.loads(out.read_text())["checks"]] == [
        "axioms", "pair", "cocycle", "theorem-3.13", "generation", "phi-roundtrip"]
    assert len(groups) == 1
    assert assemblies == []
    assert "U" not in groups[0].sigma.__dict__
    assemblies.clear()
    assert run(tmp_path, "phi", "build", *flow)[0] == 0
    assert assemblies == [("fellkit.embedding", "matrix")]


def counted_calls(monkeypatch, *names) -> dict[str, int]:
    """Count the calls of each named fellkit function, wherever a fellkit
    module binds it."""
    counts = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "fellkit"]
    for name in names:
        (fn,) = {vars(m)[name] for m in modules if name in vars(m)}

        def counted(*args, name=name, fn=fn, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        for m in modules:
            if vars(m).get(name) is fn:
                monkeypatch.setattr(m, name, counted)
    return counts


@pytest.mark.parametrize("model", [
    ("--preset", "flow", "--points", "4", "--dim", "2"),
    ("--preset", "flow", "--points", "8", "--dim", "1"),
], ids=["flow-4x2", "flow-8x1"])
def test_report_builds_phi_and_its_read_off_once(tmp_path, monkeypatch, model):
    """The cocycle and phi-roundtrip stages share the report's Φ and its
    read-off, and the round trip builds no second group, Φ or read-off.
    ω is hashed from its array, never written as JSON."""
    counts = counted_calls(monkeypatch, "covariance_group_from_frame",
                           "phi_from_covariance_group", "read_off_pair",
                           "cocycle_to_json")
    code, out = run(tmp_path, "report", *model)
    assert code == 0
    assert [c["check"] for c in json.loads(out.read_text())["checks"]] == [
        "axioms", "pair", "cocycle", "theorem-3.13", "generation", "phi-roundtrip"]
    assert counts == {"covariance_group_from_frame": 1, "phi_from_covariance_group": 1,
                      "read_off_pair": 1, "cocycle_to_json": 0}


def test_pair_stage_ranks_without_a_sample(tmp_path, monkeypatch):
    """The bundle's own pair is ranked from block structure and frame: a
    report on imprimitivity 1..4 forms no unit sample and calls no SVD, and
    the pair check on flow 4×2 calls no grouped span_dimension."""
    counts = counted_calls(monkeypatch, "span_dimension")
    for owner, name in ((fellkit.algebra.FiniteCStarAlgebra, "unit_blocks"),
                        (np.linalg, "svd")):
        def counted(*args, name=name, fn=getattr(owner, name), **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    code, out = run(tmp_path, "report", "--preset", "imprimitivity", "--dims", "1,2,3,4")
    assert code == 0
    assert [(c["check"], c["pass"]) for c in json.loads(out.read_text())["checks"]] == [
        ("axioms", True), ("pair", True)]
    assert counts == {"span_dimension": 0}
    code, out = run(tmp_path, "check", "pair", "--preset", "flow", "--points", "4",
                    "--dim", "2")
    assert code == 0 and json.loads(out.read_text())["details"]["verdict"] == "diagonal"
    assert counts["span_dimension"] == 0 and counts["svd"] > 0


def test_a_failed_read_off_fails_each_stage_that_shares_it(tmp_path):
    """A read-off that raises is not kept: on the semidirect control the
    cocycle entry and the round trip's read-off stage each carry its error,
    which names the holonomy and the point that attains it."""
    code, out = run(tmp_path, "report", "--preset", "semidirect")
    assert code == 1
    entries = {c["check"]: c for c in json.loads(out.read_text())["checks"]}
    error = "holonomy 1.751e+00 at point 1 exceeds eps"
    assert entries["cocycle"]["error"] == error
    assert entries["phi-roundtrip"]["error"] == (
        f"round trip failed at stage 'read-off': {error}")
    assert [c for c, e in entries.items() if not e["pass"]] == ["cocycle", "phi-roundtrip"]


def test_a_raising_axiom_suite_fails_the_axioms_and_pair_entries(tmp_path, monkeypatch):
    """An axiom report whose build raises is not kept: the axioms and pair
    entries of one report each run the suite and carry its error."""
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise ValueError("axiom suite broke")

    real = fellkit.fellbundle.check_fell_axioms
    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "fellkit"]:
        if vars(module).get("check_fell_axioms") is real:
            monkeypatch.setattr(module, "check_fell_axioms", broken)
    code, out = run(tmp_path, "report", "--preset", "flow", "--points", "4", "--dim", "2")
    assert code == 1
    entries = {c["check"]: c for c in json.loads(out.read_text())["checks"]}
    assert entries["axioms"]["error"] == entries["pair"]["error"] == "axiom suite broke"
    assert [c for c, e in entries.items() if not e["pass"]] == ["axioms", "pair"]
    assert len(calls) == 2


@pytest.mark.parametrize("points, dim", [(4, 2), (8, 1)])
def test_a_library_round_trip_equals_the_report_pipelines(points, dim):
    """``bridge_round_trip`` on a group alone builds its own original side;
    its report equals that of the round trip on a command's pipeline."""
    frame, g = flow_frame(points, dim, np.random.default_rng(0))
    model = build_semidirect_bundle(CStarBundle((dim,) * points), frame=frame)
    Gs = covariance_group_from_frame(g, model, 1e-9)
    check = run_phi("roundtrip", pipeline(model, g, 1e-9))
    assert check["pass"]
    assert bridge_round_trip(Gs, 1e-9) == check["details"]


def test_a_library_round_trip_fails_as_the_report_pipelines_do():
    frame = random_symmetric_frame(4, 2, np.random.default_rng(0))
    model = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    g = cycle_bisection(4)
    check = run_phi("roundtrip", pipeline(model, g, 1e-9))
    with pytest.raises(RuntimeError) as exc:
        bridge_round_trip(covariance_group_from_frame(g, model, 1e-9), 1e-9)
    assert str(exc.value).startswith("round trip failed at stage 'read-off': ")
    assert check["error"] == str(exc.value)


def test_covariance_group_is_validated_at_the_given_eps(tmp_path):
    """A flow 4×1 frame scaled by 1 + 1e-6 passes every stage at --eps 1e-4:
    the report's group, the round trip's recovered group and a single
    check's group all validate σ at the given eps, not at the default."""
    code, path = run(tmp_path, "generate", "--preset", "flow", "--points", "4",
                     "--dim", "1", "--seed", "0", name="model.json")
    assert code == 0
    doc = json.loads(path.read_text())
    s = 1 + 1e-6
    doc["frame"] = {arrow: [[[s * re, s * im] for re, im in row] for row in block]
                    for arrow, block in doc["frame"].items()}
    path.write_text(json.dumps(doc))
    code, out = run(tmp_path, "report", "--input", str(path), "--eps", "1e-4")
    assert code == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["check"] for c in checks] == [
        "axioms", "pair", "cocycle", "theorem-3.13", "generation", "phi-roundtrip"]
    assert all(c["pass"] and "error" not in c for c in checks)
    for what in ("cocycle", "generation"):
        code, out = run(tmp_path, "check", what, "--input", str(path),
                        "--eps", "1e-4", name=f"{what}.json")
        assert code == 0 and json.loads(out.read_text())["pass"]


@pytest.mark.parametrize("model", [
    ("--preset", "flow", "--points", "4", "--dim", "2"),
    ("--preset", "flow", "--points", "8", "--dim", "1"),
    ("--preset", "fourpoint"),
    ("--preset", "diag-masa", "--n", "8"),
], ids=["flow-4x2", "flow-8x1", "fourpoint", "diag-masa-8"])
def test_report_omega_digest_is_that_of_the_printed_omega(tmp_path, model):
    """The report's omega_sha256 is recomputed from the ω that ``phi
    readoff`` prints in full: each pair key ((x,y),(y,z)) to the index
    [x-1, y-1, z-1] of an (n, n, n, d, d) complex128 array, hashed as its
    shape "n,n,n,d,d" and a newline, then its little-endian bytes."""
    code, readoff = run(tmp_path, "phi", "readoff", *model, name="readoff.json")
    assert code == 0
    doc = json.loads(readoff.read_text())
    assert doc["normalizer_sample_size"] == len(doc["block_dims"]) ** 2
    n, d = doc["omega"]["points"], doc["omega"]["fibre_dim"]
    omega = np.full((n, n, n, d, d), np.nan, dtype="<c16")
    for key, value in doc["omega"]["pairs"].items():
        (x, y), (y2, z) = json.loads(key.replace("(", "[").replace(")", "]"))
        assert y2 == y
        re, im = np.moveaxis(np.array(value, dtype=float).reshape(d, d, 2), -1, 0)
        omega[x - 1, y - 1, z - 1] = re + 1j * im
    assert not np.isnan(omega).any()  # every pair printed
    code, report = run(tmp_path, "report", *model)
    assert code == 0
    (cocycle,) = [c for c in json.loads(report.read_text())["checks"]
                  if c["check"] == "cocycle"]
    assert "omega" not in cocycle["details"]
    assert cocycle["details"]["omega_sha256"] == hashlib.sha256(
        f"{n},{n},{n},{d},{d}\n".encode() + omega.tobytes()).hexdigest()


def test_ragged_blocks_model_files_report_in_every_order(tmp_path):
    """An imprimitivity model file with dims 1..4 in each of the 24 orders,
    as the ragged-blocks benchmark draws them, reports exit 0 with axioms
    and pair passing, and twice the same bytes."""
    for dims in itertools.permutations("1234"):
        code, path = run(tmp_path, "generate", "--preset", "imprimitivity",
                         "--dims", ",".join(dims), name="model.json")
        assert code == 0
        bodies = []
        for name in ("r1.json", "r2.json"):
            code, out = run(tmp_path, "report", "--input", str(path), name=name)
            assert code == 0
            bodies.append(out.read_bytes())
        assert [(c["check"], c["pass"]) for c in json.loads(bodies[0])["checks"]] == [
            ("axioms", True), ("pair", True)]
        assert bodies[0] == bodies[1]


def test_phi_readoff_reports_a_failed_read_off(tmp_path):
    code, out = run(tmp_path, "phi", "readoff", "--preset", "semidirect")
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["check"] == "phi-readoff"
    assert not doc["pass"]
    assert doc["error"].startswith("holonomy ")


def test_non_unitary_frame_exits_1_without_report(tmp_path):
    code, model_file = run(
        tmp_path, "generate", "--preset", "flow", "--points", "4", "--dim", "2",
        name="model.json",
    )
    assert code == 0
    doc = json.loads(model_file.read_text())
    doc["frame"]["(1,2)"] = [[[2 * re, 2 * im] for re, im in row]
                             for row in doc["frame"]["(1,2)"]]
    model_file.write_text(json.dumps(doc))
    code, out = run(tmp_path, "report", "--input", str(model_file))
    assert code == 1
    assert not out.exists()


def test_fourpoint_phi_build_supports(tmp_path):
    code, out = run(tmp_path, "phi", "build", "--preset", "fourpoint")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["orientable"]
    assert len(doc["block_support"]) == 16
    assert doc["generator_support"] == [[1, 4], [2, 1], [3, 2], [4, 3]]
    assert doc["generator_squared_support"] == [[1, 3], [2, 4], [3, 1], [4, 2]]


def test_exit_code_on_math_failure(tmp_path, capsys):
    # identity generator: phi pipeline fails with the missing-pair diagnostic
    model = {
        "points": 3,
        "fibre_dims": [1, 1, 1],
        "frame": {f"({x},{y})": [[[1.0, 0.0]]]
                  for x in (1, 2, 3) for y in (1, 2, 3)},
        "generator": [1, 2, 3],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out = run(tmp_path, "phi", "roundtrip", "--input", str(path))
    assert code == 1
    doc = json.loads(out.read_text())
    assert not doc["pass"]
    assert [2, 1] in doc["missing_pairs"]
    code, _ = run(tmp_path, "check", "generation", "--input", str(path),
                  name="gen.json")
    assert code == 1
    # a twist value that is not scalar is refused at load: exit 1, no report
    model["twist"] = {"((1,2),(2,3))": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}
    model["fibre_dims"] = [2, 2, 2]
    del model["frame"]
    path.write_text(json.dumps(model))
    capsys.readouterr()
    code, out = run(tmp_path, "report", "--input", str(path), name="twisted.json")
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "check failed: twist value for ((0, 1), (1, 2)) is not scalar\n")


def test_exit_code_on_usage_errors(tmp_path, capsys):
    assert main(["check", "axioms", "--input", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check", "axioms", "--input", str(bad)]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--preset", "nope"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["generate"])  # neither preset nor input
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_eps_flag_beats_environment(tmp_path, monkeypatch):
    # an absurdly tight environment tolerance fails the axiom suite
    monkeypatch.setenv("FELLKIT_EPS", "1e-30")
    code, _ = run(tmp_path, "check", "axioms", "--preset", "semidirect",
                  "--points", "3", "--dim", "2", name="env.json")
    assert code == 1
    # the flag overrides it
    code, _ = run(tmp_path, "check", "axioms", "--preset", "semidirect",
                  "--points", "3", "--dim", "2", "--eps", "1e-9",
                  name="flag.json")
    assert code == 0
    monkeypatch.setenv("FELLKIT_EPS", "not-a-number")
    assert main(["check", "axioms", "--preset", "fourpoint"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "1.5", "1", "-1", "0"])
@pytest.mark.parametrize("source", ["flag", "environment"])
def test_eps_outside_the_unit_interval_is_a_usage_error(value, source, monkeypatch,
                                                        capsys):
    """Before, nan failed every check, inf and 1.5 passed the axioms with
    every rank 0, and -1 and 0 refused the model's own frame."""
    argv = ["check", "axioms", "--preset", "flow", "--points", "3", "--dim", "1"]
    if source == "flag":
        argv += ["--eps", value]
    else:
        monkeypatch.setenv("FELLKIT_EPS", value)
    assert main(argv) == 2
    name = "--eps" if source == "flag" else "FELLKIT_EPS"
    want = f"error: {name} must lie in (0, 1), got {float(value)}\n"
    assert capsys.readouterr().err == want


def test_text_format(tmp_path):
    code, out = run(tmp_path, "check", "pair", "--preset", "diag-masa",
                    "--n", "4", "--format", "text", name="report.txt")
    assert code == 0
    text = out.read_text()
    assert "verdict: diagonal" in text
    assert "kernel_dim: 12" in text


def test_text_format_keeps_every_digit_of_phi(tmp_path):
    """At N = 32 the text form of Φ has no elided entries, and its numbers
    are the JSON form's: each matrix entry is walked as the [re, im] pair
    that the JSON form writes."""
    args = ("phi", "build", "--preset", "flow", "--points", "8", "--dim", "4")
    code, out = run(tmp_path, *args, "--format", "text", name="phi.txt")
    assert code == 0
    text = out.read_text()
    assert "..." not in text
    code, out = run(tmp_path, *args)
    assert code == 0
    doc = json.loads(out.read_text())
    lines = text.splitlines()
    start = lines.index("phi:") + 1
    numbers = [float(line.strip()[2:]) for line in lines[start:]
               if line.startswith("  - ")]
    assert numbers == list(np.ravel(doc["phi"]))
    assert len(numbers) == 2 * 32 * 32


def test_diag_masa_pair_check(tmp_path):
    code, out = run(tmp_path, "check", "pair", "--preset", "diag-masa",
                    "--n", "4")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["details"]["verdict"] == "diagonal"
    assert doc["details"]["kernel_dim"] == 12


def test_imprimitivity_pair_check(tmp_path):
    code, out = run(tmp_path, "check", "pair", "--preset", "imprimitivity",
                    "--dims", "2,1")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["details"]["verdict"] == "diagonal"
    assert doc["details"]["kernel_dim"] == 4


def test_commands_that_need_a_generator(tmp_path):
    assert main(["check", "generation", "--preset", "imprimitivity"]) == 2
    assert main(["phi", "build", "--preset", "imprimitivity"]) == 2


@pytest.mark.parametrize("argv, option", [
    (("--preset", "flow", "--points", "0"), "--points"),
    (("--preset", "flow", "--dim", "0"), "--dim"),
    (("--preset", "semidirect", "--points", "-2"), "--points"),
    (("--preset", "diag-masa", "--n", "0"), "--n"),
    (("--preset", "imprimitivity", "--dims", "1,,2"), "--dims"),
    (("--preset", "imprimitivity", "--dims", "1,x"), "--dims"),
    (("--preset", "imprimitivity", "--dims", ""), "--dims"),
    (("--preset", "imprimitivity", "--dims", "2,0"), "--dims"),
    (("--preset", "flow", "--seed", "-1"), "--seed"),
    (("--preset", "semidirect", "--seed", "-1"), "--seed"),
], ids=["points-0", "dim-0", "points-negative", "n-0", "dims-empty-entry",
        "dims-not-integer", "dims-empty", "dims-entry-0", "flow-seed-negative",
        "semidirect-seed-negative"])
@pytest.mark.parametrize("command", ["report", "generate"])
def test_preset_sizes_out_of_range_are_usage_errors(tmp_path, capsys, argv, option,
                                                    command):
    """Before, these exited 1 with numpy's or int()'s message."""
    code, out = run(tmp_path, command, *argv)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


@pytest.mark.parametrize("preset", ["fourpoint", "diag-masa", "imprimitivity"])
def test_a_preset_that_does_not_draw_ignores_the_seed(tmp_path, preset):
    """Only the presets that draw refuse a negative --seed."""
    assert run(tmp_path, "generate", "--preset", preset, "--seed", "-1")[0] == 0


@pytest.mark.parametrize("body, reason", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 200_000, "maximum recursion depth exceeded"),
], ids=["not-utf-8", "nested-too-deep"])
@pytest.mark.parametrize("command", ["report", "generate"])
def test_an_unreadable_model_file_is_a_parse_error(tmp_path, capsys, body, reason,
                                                   command):
    """Before, the first exited 1 as a failed check and the second raised
    RecursionError out of json."""
    path = tmp_path / "model.json"
    path.write_bytes(body)
    code, out = run(tmp_path, command, "--input", str(path))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid JSON: {reason}") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize("where", ["frame", "scalar twist", "matrix twist"])
def test_a_non_finite_model_value_fails_without_a_warning(tmp_path, capsys, value,
                                                          where):
    """Finiteness is checked before the frame's unitarity products and
    before a scalar twist value scales I, so numpy warns of nothing."""
    code, path = run(tmp_path, "generate", "--preset", "flow", "--points", "3",
                     "--dim", "2", name="model.json")
    assert code == 0
    doc = json.loads(path.read_text())
    if where == "frame":
        doc["frame"]["(1,2)"][0][0][0] = "@"
    elif where == "scalar twist":
        doc["twist"] = {"((1,2),(2,3))": ["@", 0.0]}
    else:
        doc["twist"] = {"((1,2),(2,3))": [[["@", 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [1.0, 0.0]]]}
    path.write_text(json.dumps(doc).replace('"@"', value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "report", "--input", str(path))
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "check failed: matrix contains non-finite entries\n"
