"""Fuzz the CLI over its documented grammar: every argv ends in an exit code
0-5, never in a traceback."""
import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from pascalinv.cli import main

SCALARS = st.sampled_from(
    ("0", "1", "-2", "1/3", "-5/4", "1/0", "sqrt5", "1/2+1/2√5", "3/2-1/2sqrt5", "sqrt2", "1+sqrt3", "x", "")
)
NAMED = st.sampled_from(("fib", "fibonacci", "lucas", "bernoulli", "altbernoulli", "kseq", "luca"))
FINSUPP = st.lists(SCALARS, max_size=5).map(lambda xs: "finsupp:[" + ",".join(xs) + "]")
GEOM = st.lists(st.tuples(SCALARS, SCALARS), min_size=1, max_size=3).map(
    lambda ps: "geom:" + "+".join(f"({c},{r})" for c, r in ps)
)
LITERALS = st.one_of(NAMED, FINSUPP, GEOM, st.sampled_from(("finsupp:{1}", "geom:(1)", "nonsense:[")))
STAGES = st.one_of(
    st.sampled_from(("t42a", "t42b", "t42c", "t42d", "warp(2)", "")),
    st.builds(
        "{}({})".format,
        st.sampled_from(("phi", "phitilde", "psi", "psitilde")),
        st.integers(0, 3),
    ),
)
PIPELINES = st.lists(STAGES, min_size=1, max_size=3).map(";".join)
MATRICES = st.one_of(
    st.sampled_from(
        ("P", "PT", "D", "A", "L", "Omega", "Q", "QT", "PD", "PTD", "N", "M",
         "PTdown", "Qdown", "QTdown00", "ZeroTopPdown", "Zorg")
    ),
    st.builds("{}:{}".format, st.sampled_from(("J", "Jinv", "K")), SCALARS),
)
SUITES = st.sampled_from(("inversion", "eigen", "similarity", "transforms", "all", "everything"))


def _opt(flag, values):
    return st.one_of(st.just(()), values.map(lambda v: (flag, str(v))))


COMMON = st.tuples(
    _opt("--depth", st.integers(-1, 12)),
    _opt("--mode", st.sampled_from(("classical", "continued", "lazy"))),
    _opt("--format", st.sampled_from(("pretty", "json", "csv", "xml"))),
    _opt("--seed", st.integers(0, 9)),
)
COMMANDS = st.one_of(
    st.tuples(st.just("gen"), LITERALS),
    st.tuples(st.just("check"), LITERALS, st.just("--kind"), st.sampled_from(("first", "second", "third"))),
    st.tuples(st.just("check"), LITERALS),
    st.tuples(st.just("apply"), PIPELINES, LITERALS),
    st.tuples(
        st.just("matrix"), MATRICES,
        st.just("--rows"), st.integers(-1, 6).map(str),
        st.just("--cols"), st.integers(-1, 6).map(str),
    ),
    st.tuples(st.just("verify"), SUITES),
    st.tuples(st.just("table1")),
    st.tuples(st.sampled_from(("", "--depth", "frobnicate"))),
)
ARGV = st.builds(lambda cmd, opts: [*cmd, *(x for opt in opts for x in opt)], COMMANDS, COMMON)


@settings(max_examples=60)
@given(argv=ARGV)
def test_every_argv_ends_in_a_documented_exit_code(argv):
    # capsys is not reset between hypothesis examples, so capture here
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(6), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


RATIONALS = st.sampled_from(("1", "-2", "1/3", "-5/4"))


def _field_scalar(d):
    return st.sampled_from((f"sqrt{d}", f"1+sqrt{d}", f"-1/2√{d}", f"3/2-1/3√{d}"))


@st.composite
def mixed_field_geom(draw):
    """A geom literal holding irrationals from two different quadratic fields."""
    d1, d2 = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=2, unique=True))
    slots = [draw(RATIONALS) for _ in range(2 * draw(st.integers(1, 2)))]
    i, j = draw(st.lists(st.integers(0, len(slots) - 1), min_size=2, max_size=2, unique=True))
    slots[i], slots[j] = draw(_field_scalar(d1)), draw(_field_scalar(d2))
    return "geom:" + "+".join(f"({c},{r})" for c, r in zip(slots[::2], slots[1::2]))


@settings(max_examples=40)
@given(
    literal=mixed_field_geom(),
    cmd=st.sampled_from((("gen",), ("check", "--kind", "first"), ("check", "--kind", "second"))),
)
def test_mixed_field_literals_are_parse_errors(literal, cmd):
    argv = [cmd[0], literal, *cmd[1:], "--depth", "4"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, (argv, code)
    assert "cannot mix" in err.getvalue()
