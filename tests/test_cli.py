"""Command-line interface: exit codes, output formats, input handling."""

import contextlib
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lambdamu
from lambdamu import parse_term, print_term
from lambdamu import reduction
from lambdamu.cli import main
from lambdamu.syntax import MAX_NESTING

OK, FAIL, INCONCLUSIVE, USAGE = 0, 1, 2, 64


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# parse
# --------------------------------------------------------------------------

def test_parse_echoes_canonical_printing(capsys):
    code, out, _ = run(capsys, "parse", "--term", "\\x:P.x")
    assert code == OK
    assert out.strip() == "\\x:P. x"


def test_parse_case_annotation_round_trip(capsys):
    code, out, _ = run(capsys, "parse", "--term", "(w [x.x, y.y]{P})",
                       "--open", "w")
    assert code == OK
    assert out.strip() == "(w [x.x, y.y]{P})"


def _binders(n):
    """\\x0:P. ... \\x{n-1}:P. x0, which nests n + 1 levels deep."""
    return "".join(f"\\x{i}:P. " for i in range(n)) + "x0"


def _arguments(n):
    """\\y:P -> P. \\z:P. (y (y ... (y z))) with n applications, which
    nests n + 3 levels deep."""
    return "\\y:P -> P. \\z:P. " + "(y " * n + "z" + ")" * n


def test_parse_error_is_usage(capsys):
    for argv in (["parse", "--term", "\\x:P"],
                 ["check", "--term", _binders(1000)],
                 ["parse", "--term", "(y " * 600 + "y" + ")" * 600],
                 ["check", "--term", "T", "--type", "~" * 1200 + "P"]):
        code, _, err = run(capsys, *argv)
        assert code == USAGE, argv[:2]
        assert "parse error" in err
        assert "Traceback" not in err


def test_nesting_bound(capsys):
    # a term exactly at the bound parses and checks; one level deeper
    # is a parse error that names the bound
    for make, levels in ((_binders, 1), (_arguments, 3)):
        at_bound = make(MAX_NESTING - levels)
        code, out, _ = run(capsys, "check", "--term", at_bound)
        assert code == OK
        assert out.strip().endswith("-> P -> P")
        code, out, _ = run(capsys, "parse", "--term", at_bound)
        assert code == OK
        assert out.strip() == print_term(parse_term(at_bound))
        code, _, err = run(capsys, "check", "--term",
                           make(MAX_NESTING - levels + 1))
        assert code == USAGE
        assert f"deeper than {MAX_NESTING}" in err


_TOKENS = ["P", "Q", "_|_", "x", "y", "T", "\\x:P.", "\\y:~P.", "mu a:P.",
           "[a]", "(", ")", "<", ",", ">", "->", "\\/", "/\\", "~", "p1",
           "in1{P}", "[x.x, y.y]"]


# shallow, or around the bound and far past it
_depth = st.integers(0, 8) | st.integers(MAX_NESTING - 8, 6 * MAX_NESTING)


def _nested(depth, wrap, leaf):
    open_, close = wrap
    return open_ * depth + leaf + close * depth


_term_text = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join),
    st.builds(_nested, _depth,
              st.sampled_from([("(\\x:P. x ", ")"), ("[a] ", ""), ("(T ", ")"),
                               ("<", ", T>"), ("in1{P} ", "")]),
              st.sampled_from(["x", "T", "(T x)"])))
_formula_text = st.one_of(
    st.lists(st.sampled_from(["P", "_|_", "~", "->", "\\/", "/\\", "(", ")"]),
             max_size=20).map(" ".join),
    st.builds(_nested, _depth,
              st.sampled_from([("~", ""), ("(", ")"), ("P -> ", "")]),
              st.just("P")))


@settings(max_examples=100, deadline=None)
@example("parse", _nested(1000, ("(T ", ")"), "x"), None)
@example("check", "T", _nested(1000, ("(", ")"), "P"))
@given(st.sampled_from(["parse", "check"]), _term_text,
       st.none() | _formula_text)
def test_cli_is_total(command, term, formula):
    argv = [command, "--term", term]
    if command == "check" and formula is not None:
        argv += ["--type", formula]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (OK, FAIL, INCONCLUSIVE, USAGE)
    assert "Traceback" not in err.getvalue()


def test_free_variables_need_open(capsys):
    code, _, err = run(capsys, "parse", "--term", "(f x)")
    assert code == USAGE
    assert "--open" in err
    code, out, _ = run(capsys, "parse", "--term", "(f x)", "--open", "f,x")
    assert code == OK
    # --open declares free mu-names too
    code, _, _ = run(capsys, "reduce", "--term", "[a] y", "--open", "a,y")
    assert code == OK
    code, _, err = run(capsys, "reduce", "--term", "[a] y", "--open", "y")
    assert code == USAGE
    assert "term has free variables ['a']" in err


def test_file_input(tmp_path, capsys):
    f = tmp_path / "term.lmu"
    f.write_text("\\x:P. x")
    code, out, _ = run(capsys, "parse", str(f))
    assert code == OK
    assert out.strip() == "\\x:P. x"


def test_term_and_file_conflict(tmp_path, capsys):
    f = tmp_path / "term.lmu"
    f.write_text("x")
    code, _, err = run(capsys, "parse", "--term", "x", str(f))
    assert code == USAGE


def test_no_input_is_usage(capsys):
    code, _, _ = run(capsys, "parse")
    assert code == USAGE


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def test_check_canonical_name(capsys):
    code, out, _ = run(capsys, "check", "--term", "T")
    assert code == OK
    assert out.strip() == "_|_ -> P"


@pytest.mark.parametrize("name, ty", [
    ("C1", "(~P -> P) -> P"),
    ("C2", "(~P -> P) -> P"),
    ("W", "P \\/ ~P"),
    ("Wprime", "~P \\/ P"),
    ("Tvar", "_|_ -> P"),
])
def test_check_all_canonical_names(capsys, name, ty):
    code, out, _ = run(capsys, "check", "--term", name)
    assert code == OK
    assert out.strip() == ty


def test_check_expected_type_match(capsys):
    code, _, _ = run(capsys, "check", "--term", "T", "--type", "_|_ -> P")
    assert code == OK


def test_check_expected_type_mismatch(capsys):
    code, _, err = run(capsys, "check", "--term", "T", "--type", "P")
    assert code == FAIL
    assert "mismatch" in err


def test_check_ill_typed(capsys):
    code, out, err = run(capsys, "check", "--term", "\\x:P. (x x)")
    assert (code, out) == (FAIL, "")
    assert err == "type error: applied term is not a function: in (x x): " \
                  "(rule arrow-e): found P\n"


def test_check_type_error_exit(capsys):
    code, _, err = run(capsys, "check", "--term", "\\x:P. (x y)", "--open", "y")
    assert code == FAIL
    assert err == "type error: applied term is not a function: in (x y): " \
                  "(rule arrow-e): found P\n"


def test_check_derivation_json(capsys):
    code, out, _ = run(capsys, "check", "--term", "\\x:P. x", "--derivation")
    assert code == OK
    j = json.loads(out)
    assert j["rule"] == "arrow-i"


def test_open_shadows_canonical_name(capsys):
    # --open T keeps T as a plain free variable instead of the library term
    code, _, err = run(capsys, "check", "--term", "T", "--open", "T")
    assert code == FAIL  # free variables are not typeable in empty context


# --------------------------------------------------------------------------
# reduce
# --------------------------------------------------------------------------

def test_reduce_golden_T(capsys):
    code, out, _ = run(capsys, "reduce", "--term", "((T t) u)",
                       "--open", "t,u")
    assert code == OK
    # the mu annotation is consumed with the argument: P is not an arrow
    assert out.strip() == "mu a. t"


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", "--term", "((T t) u)",
                       "--open", "t,u", "--trace")
    assert code == OK
    lines = out.strip().splitlines()
    assert lines[0] == "mu a. t"
    steps = [json.loads(l) for l in lines[1:]]
    assert [s["rule"] for s in steps] == ["beta", "mu-struct"]


def test_reduce_fuel_exhausted(capsys):
    code, _, err = run(capsys, "reduce",
                       "--term", "(\\x:~P. (x x) \\x:~P. (x x))",
                       "--fuel", "10")
    assert code == INCONCLUSIVE
    assert "fuel exhausted after 10 steps" in err


def test_reduce_fuel_exhausted_prints_the_trace(capsys):
    code, out, err = run(capsys, "reduce",
                         "--term", "(\\x:~P. (x x) \\x:~P. (x x))",
                         "--fuel", "2", "--trace")
    assert code == INCONCLUSIVE
    steps = [json.loads(line) for line in out.splitlines()]
    assert [(s["index"], s["rule"], s["position"]) for s in steps] == \
        [(0, "beta", []), (1, "beta", [])]
    assert steps[0]["before"] == steps[0]["after"] == steps[1]["before"]
    assert err == "fuel exhausted after 2 steps\n"


_N_ARGS = 20
# a's type when the mu-struct input below is to be typed, with y : _A, w : P
_A = "P" + " -> P" * _N_ARGS
_TOO_DEEP = f"reduct nested deeper than {MAX_NESTING} levels after 1 steps\n"


def _mu_struct_input(ann="P", n_args=_N_ARGS):
    """(mu a:ann. [a] mu b0:ann. [a] ... [a] y) applied to w n_args times.

    With ann P and 20 arguments it nests 162 levels and parses, but
    mu-struct appends w under each of the 61 [a] names, so the first
    reduct is nested past the bound.
    """
    term = "y"
    for i in range(60):
        term = f"mu b{i}:{ann}. [a] {term}"
    term = f"mu a:{ann}. [a] {term}"
    for _ in range(n_args):
        term = f"({term} w)"
    return term


def test_reduce_too_deep_is_inconclusive(capsys):
    code, out, err = run(capsys, "reduce", "--term", _mu_struct_input(),
                         "--open", "y,w")
    assert code == INCONCLUSIVE
    assert out == ""
    assert err == _TOO_DEEP


# --------------------------------------------------------------------------
# graph
# --------------------------------------------------------------------------

def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "--term", "(\\x:P. x y)",
                       "--open", "y")
    assert code == OK
    j = json.loads(out)
    assert j["complete"] is True
    assert len(j["edges"]) == 1


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--term", "(\\x:P. x y)",
                       "--open", "y", "--dot")
    assert code == OK
    assert out.startswith("digraph")


@pytest.mark.parametrize("fmt", [[], ["--dot"]])
def test_graph_too_deep_is_inconclusive(capsys, fmt):
    code, out, err = run(capsys, "graph", "--term", _mu_struct_input(),
                         "--open", "y,w", *fmt)
    assert code == INCONCLUSIVE
    assert out == ""
    assert err == _TOO_DEEP


def test_graph_cap_bounds_the_work(capsys, monkeypatch):
    # one w: no reduct is too deep, but the root's one reduct has 60
    # reducts of about 1,100 characters, each with dozens of redexes;
    # once the cap drops one of them, nothing more is expanded
    expanded = []
    steps = reduction._steps
    monkeypatch.setattr(reduction, "_steps",
                        lambda t: expanded.append(t) or steps(t))
    code, out, _ = run(capsys, "graph", "--term", _mu_struct_input(n_args=1),
                       "--open", "y,w", "--node-cap", "20")
    assert code == INCONCLUSIVE
    graph = json.loads(out)
    assert (graph["complete"], len(graph["nodes"])) == (False, 20)
    assert len(expanded) == 2


def test_graph_cap_inconclusive(capsys):
    code, _, _ = run(capsys, "graph",
                     "--term", "(\\x:~P. [a] (x x) \\x:~P. [a] (x x))",
                     "--open", "a", "--node-cap", "5")
    assert code == INCONCLUSIVE


# --------------------------------------------------------------------------
# probe
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name, law, m", [
    ("T", "efq", 0),
    ("Tvar", "efq", 0),
    ("C1", "peirce", 1),
    ("C2", "peirce", 2),
    ("W", "lem", 2),
    ("Wprime", "lem", 2),
])
def test_probe_canonical(capsys, name, law, m):
    code, out, _ = run(capsys, "probe", "--term", name, "--law", law)
    assert code == OK
    j = json.loads(out)
    assert j["verdict"] == "confirmed"
    assert j["m"] == m


def test_probe_wrong_type_fails(capsys):
    code, _, err = run(capsys, "probe", "--term", "T", "--law", "peirce")
    assert code == FAIL
    assert err == "type error: subject must have type (~P -> P) -> P: " \
                  "in \\z:_|_. mu a:P. z: found _|_ -> P\n"


def test_probe_too_deep_is_inconclusive(capsys):
    # the mu-struct input closed over y and w, typed at _|_ -> _A -> P -> P;
    # the search meets the too-deep reduct on expanding its first node
    subject = f"\\z:_|_. \\y:{_A}. \\w:P. {_mu_struct_input(_A)}"
    code, out, _ = run(capsys, "check", "--term", subject)
    assert code == OK
    assert out.startswith("_|_ -> ")
    code, out, err = run(capsys, "probe", "--law", "efq", "--term", subject)
    assert code == INCONCLUSIVE
    assert out == ""
    assert err == _TOO_DEEP


def _deferred_too_deep_subject(k):
    """A closed subject of type _|_ -> P whose redex (\\x:P. mu c:P. z)
    leads to the terminal leaf, beside an argument that leads, through
    k - 1 identity redexes, to the mu-struct input closed over y and w:
    its 20 w then make a reduct nested past MAX_NESTING."""
    mu = _mu_struct_input(_A, n_args=0)
    for i in range(k, 1, -1):
        mu = f"(\\F{i}:{_A}. F{i} {mu})"
    spine = "F1"
    for _ in range(_N_ARGS):
        spine = f"({spine} w)"
    body = f"(\\F1:{_A}. {spine} {mu})"
    y = "".join(f"\\v{i}:P. " for i in range(_N_ARGS)) + "v0"  # y : _A
    return f"\\z:_|_. (\\x:P. mu c:P. z " \
           f"((\\y:{_A}. \\w:P. {body} {y}) mu e:P. z))"


@pytest.mark.parametrize("k, steps", [(1, 2), (2, 3), (3, None), (4, None),
                                      (5, None)])
def test_probe_search_stops_before_a_later_too_deep_reduct(capsys, k,
                                                           steps):
    # the search is breadth-first and stops at the first node that holds
    # a leaf: it meets the too-deep reduct only when the reduct comes
    # first, and from k = 3 on the leaf does, though the whole graph
    # holds a reduct too deep to build
    code, out, err = run(capsys, "probe", "--law", "efq",
                         "--term", _deferred_too_deep_subject(k))
    if steps is not None:
        assert code == INCONCLUSIVE
        assert (out, err) == ("", f"reduct nested deeper than {MAX_NESTING}"
                                  f" levels after {steps} steps\n")
    else:
        assert code == OK
        report = json.loads(out)
        assert (report["verdict"], report["m"], report["detail"]) == \
            ("confirmed", 0, "terminal (t0 ...)")


# every command that loads a term, each with small bounds
_LOADING = {
    "parse": ["parse"],
    "check": ["check"],
    "reduce": ["reduce", "--fuel", "20", "--trace"],
    "graph": ["graph", "--node-cap", "20"],
    **{law: ["probe", "--law", law, "--node-cap", "20", "--max-m", "1"]
       for law in ("efq", "peirce", "lem")},
}
_LOOP = "(\\x:~P. [a] (x x) \\x:~P. [a] (x x))"
_DEEP = f"\\z:_|_. \\y:{_A}. \\w:P. {_mu_struct_input(_A)}"


@settings(max_examples=100, deadline=None)
@example("parse", "T", OK)
@example("parse", "z", USAGE)
@example("check", "T", OK)
@example("check", "\\x:P. (x x)", FAIL)
@example("check", "\\x:P", USAGE)
@example("reduce", "((T x) y)", OK)
@example("reduce", _LOOP, INCONCLUSIVE)  # fuel
@example("reduce", _DEEP, INCONCLUSIVE)  # reduct depth
@example("reduce", "(", USAGE)
@example("graph", "(\\x:P. x y)", OK)
@example("graph", _LOOP, INCONCLUSIVE)  # node cap
@example("graph", _DEEP, INCONCLUSIVE)
@example("graph", "z", USAGE)
@example("efq", "T", OK)
@example("efq", "C1", FAIL)  # type error
@example("efq", _DEEP, INCONCLUSIVE)
@example("efq", "(T", USAGE)
@example("peirce", "C1", OK)
@example("peirce", "T", FAIL)
@example("peirce", "C2", INCONCLUSIVE)  # m = 2 > --max-m
@example("peirce", "b", USAGE)
@example("lem", "W", INCONCLUSIVE)  # m = 2 > --max-m
@example("lem", "Tvar", FAIL)
@example("lem", "\\x:P.", USAGE)
@given(st.sampled_from(sorted(_LOADING)), _term_text, st.none())
def test_term_commands_are_total(command, term, expected):
    argv = _LOADING[command] + ["--term", term, "--open", "x,y,a"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (OK, FAIL, INCONCLUSIVE, USAGE)
    assert expected is None or code == expected
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--term", "T", "--law", "efq", "--n-args", "1200"],
    ["--term", "C1", "--law", "peirce", "--n-args", "1200"],
    ["--term", "W", "--law", "lem", "--seq-len", "1200"],
])
def test_probe_deep_subject_is_inconclusive(capsys, argv):
    # 1,200 arguments nest the subject far past the bound before any
    # step; the depth is measured before anything walks it recursively
    code, out, err = run(capsys, "probe", *argv)
    assert code == INCONCLUSIVE
    assert out == ""
    assert err == f"reduct nested deeper than {MAX_NESTING} levels " \
                  f"after 0 steps\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, detail", [
    (["--law", "efq", "--term", "T", "--node-cap", "1"],
     "node cap 1 exhausted at stage 0"),
    (["--law", "peirce", "--term", "C1", "--node-cap", "1"],
     "node cap 1 exhausted at stage 0"),
    (["--law", "peirce", "--term", "C2", "--max-m", "0"],
     "no terminal leaf within max_m=0 stages"),
])
def test_probe_inconclusive(capsys, argv, detail):
    code, out, _ = run(capsys, "probe", *argv)
    assert code == INCONCLUSIVE
    j = json.loads(out)
    assert (j["verdict"], j["detail"]) == ("inconclusive", detail)


@pytest.mark.parametrize("law, name, detail", [
    ("efq", "T", "no continuation or terminal leaf at stage 0"),
    ("peirce", "C1", "no continuation or terminal leaf at stage 0"),
    ("lem", "W", "no continuation or terminal leaf at stage 0"),
])
def test_probe_refuted(capsys, monkeypatch, law, name, detail):
    # with no redex to contract, each subject's graph is complete and
    # holds only the probe term, which is no spine
    monkeypatch.setattr(reduction, "_contract", lambda t: None)
    code, out, _ = run(capsys, "probe", "--law", law, "--term", name)
    assert code == FAIL
    j = json.loads(out)
    assert (j["verdict"], j["detail"]) == ("refuted", detail)


def test_probe_seed_determinism(capsys):
    _, out1, _ = run(capsys, "probe", "--term", "C2", "--law", "peirce",
                     "--seed", "42")
    _, out2, _ = run(capsys, "probe", "--term", "C2", "--law", "peirce",
                     "--seed", "42")
    assert out1 == out2


# --------------------------------------------------------------------------
# suite and corpus
# --------------------------------------------------------------------------

def test_suite_small(capsys):
    code, out, _ = run(capsys, "suite", "--max-size", "5")
    assert code == OK
    assert "subject-reduction: ok" in out
    assert "confluence: ok" in out
    assert "strong-normalization: ok" in out


def test_suite_json(capsys):
    code, out, _ = run(capsys, "suite", "--max-size", "4", "--json")
    assert code == OK
    reports = [json.loads(l) for l in out.strip().splitlines()]
    assert [r["property"] for r in reports] == \
        ["subject-reduction", "confluence", "strong-normalization"]
    assert all(r["failures"] == [] for r in reports)


def test_corpus_target(capsys):
    code, out, _ = run(capsys, "corpus", "--max-size", "3",
                       "--target", "_|_ -> P")
    assert code == OK
    assert "\\x0:_|_. mu a0:P. x0 : _|_ -> P" in out


def test_corpus_target_with_other_atoms(capsys):
    code, out, _ = run(capsys, "corpus", "--max-size", "4",
                       "--target", "Q -> Q")
    assert code == OK
    assert out.splitlines()[0] == "\\x0:Q. x0 : Q -> Q"


@pytest.mark.parametrize("argv", [
    ["graph", "--term", "x", "--open", "x", "--node-cap", "0"],
    ["suite", "--node-cap", "-3"],
    ["suite", "--max-size", "0"],
    ["corpus", "--max-formula-size", "0"],
    ["parse", "{missing}"],
    ["parse", "{binary}"],
    ["reduce", "--term", "x", "--open", "x", "--fuel", "-1"],
    ["probe", "--term", "C1", "--law", "peirce", "--max-m", "-1"],
    ["probe", "--term", "T", "--law", "efq", "--n-args", "-1"],
    ["graph", "--term", "x", "--open", "x", "--json"],
    ["--seed", "-1", "probe", "--term", "C1", "--law", "peirce"],
])
def test_bad_input_is_usage(tmp_path, capsys, argv):
    binary = tmp_path / "binary.lmu"
    binary.write_bytes(b"\xff\xfe")
    paths = {"missing": tmp_path / "missing.lmu", "binary": binary}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == USAGE
    assert "usage error" in err
    assert "Traceback" not in err


def test_usage_no_command(capsys):
    code, _, err = run(capsys, )
    assert code == USAGE
    assert "usage" in err


# --------------------------------------------------------------------------
# the console script
# --------------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_script():
    """The `lambdamu` value of `[project.scripts]` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "lambdamu" in scripts, "pyproject.toml declares no lambdamu script"
    return scripts["lambdamu"]


def _run_as_program(launch, *argv):
    """Run the program in a new interpreter that imports this checkout's
    package, launch being the interpreter's own arguments: ``-c`` and a
    line of code, or ``-m`` and a module."""
    package_root = Path(lambdamu.__file__).resolve().parents[1]
    path = [str(package_root), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *launch, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not PYPROJECT.is_file(), reason="no pyproject.toml")
def test_entry_point_installed():
    # What an install of this checkout puts on PATH: the declared script,
    # its target, and how that target behaves when run as a program, the
    # way a console-script wrapper runs it (`sys.exit(main())` with
    # arguments from `sys.argv`) and as `python -m lambdamu`.
    entry_point = importlib.metadata.EntryPoint(
        name="lambdamu", value=_declared_script(), group="console_scripts")
    assert entry_point.load() is main

    as_script = ["-c", f"import sys; from {entry_point.module} import"
                       f" {entry_point.attr}; sys.exit({entry_point.attr}())"]
    for launch in (as_script, ["-m", "lambdamu"]):
        done = _run_as_program(launch, "check", "--term", "T")
        assert done.returncode == OK, (launch, done.stderr)
        assert done.stdout.strip() == "_|_ -> P"
        assert "Traceback" not in done.stderr

        done = _run_as_program(launch)
        assert done.returncode == USAGE, (launch, done.stderr)
        assert "usage" in done.stderr
        assert "Traceback" not in done.stderr


def _not_installed():
    try:
        importlib.metadata.distribution("lambdamu")
    except importlib.metadata.PackageNotFoundError:
        return True
    return False


@pytest.mark.skipif(_not_installed(), reason="lambdamu is not installed")
def test_entry_point_on_path():
    assert shutil.which("lambdamu")
    installed = importlib.metadata.distribution("lambdamu").entry_points
    scripts = installed.select(group="console_scripts", name="lambdamu")
    assert [ep.value for ep in scripts] == [_declared_script()]
