"""The config boundary: every key's declared domain is what resolve_config
accepts, and a rejected value exits 2 before anything is written."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evcontracts.cli import EXIT_CONFIG, main
from evcontracts.experiments import (
    _PARSERS,
    SCHEMAS,
    ConfigError,
    Key,
    _format_value,
    parse_assignment,
    resolve_config,
)

FINITE = {"allow_nan": False, "allow_infinity": False}


def has_bounds(spec: Key) -> bool:
    return any(b is not None for b in (spec.above, spec.at_least, spec.below))


def has_domain(spec: Key) -> bool:
    return has_bounds(spec) or bool(spec.choices) or spec.kind == "floats"


ALL_KEYS = [(e, k) for e, schema in SCHEMAS.items() for k in schema]
DOMAIN_KEYS = [(e, k) for e, k in ALL_KEYS if has_domain(SCHEMAS[e][k])]


def as_text(spec: Key, value) -> str:
    if spec.kind == "floats":
        return ",".join(map(repr, value))
    return value if spec.kind == "str" else repr(value)


def inside_scalar(spec: Key) -> st.SearchStrategy:
    """Scalars in the domain (for a floats key, one list element)."""
    if spec.choices:
        return st.sampled_from(spec.choices)
    if spec.kind == "int":
        return st.integers(spec.at_least, None if spec.below is None else spec.below - 1)
    return st.floats(
        min_value=spec.above if spec.above is not None else spec.at_least,
        max_value=spec.below,
        exclude_min=spec.above is not None,
        exclude_max=spec.below is not None,
        **FINITE,
    )


def inside(spec: Key) -> st.SearchStrategy:
    if spec.kind == "floats":
        return st.lists(inside_scalar(spec), min_size=1, max_size=4)
    return inside_scalar(spec)


def lower_edge(spec: Key):
    """The largest value below the domain: a strict bound itself, or the
    next representable value under an inclusive one."""
    if spec.above is not None:
        return spec.above
    if spec.kind == "int":
        return spec.at_least - 1
    return math.nextafter(spec.at_least, -math.inf)


def outside_scalar(spec: Key) -> st.SearchStrategy:
    """Scalars just outside the bounds: each edge, 0, negatives and huge values."""
    options = []
    if spec.above is not None or spec.at_least is not None:
        edge = lower_edge(spec)
        below = st.integers(max_value=edge) if spec.kind == "int" else st.floats(max_value=edge, **FINITE)
        options += [st.sampled_from([v for v in (edge, 0, -1) if v <= edge]), below]
    if spec.below is not None:
        above = (st.integers(min_value=spec.below) if spec.kind == "int"
                 else st.floats(min_value=spec.below, **FINITE))
        options += [st.just(spec.below), above]
    return st.one_of(options)


@st.composite
def outside(draw, spec: Key):
    if spec.choices:
        return draw(st.text().filter(lambda s: s not in spec.choices))
    if spec.kind != "floats":
        return draw(outside_scalar(spec))
    faults = ["empty"] + ["element"] * has_bounds(spec)
    fault = draw(st.sampled_from(faults))
    if fault == "empty":
        return []
    values = draw(inside(spec))
    position = draw(st.integers(0, len(values)))
    return values[:position] + [draw(outside_scalar(spec))] + values[position:]


@pytest.mark.parametrize("experiment, key", DOMAIN_KEYS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_value_outside_domain_names_the_key(experiment, key, data):
    spec = SCHEMAS[experiment][key]
    text = as_text(spec, data.draw(outside(spec)))
    with pytest.raises(ConfigError) as err:
        resolve_config(experiment, "out", overrides={key: text})
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("experiment, key", ALL_KEYS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_value_inside_domain_is_accepted(experiment, key, data):
    spec = SCHEMAS[experiment][key]
    value = data.draw(inside(spec))
    config = resolve_config(experiment, "out", overrides={key: as_text(spec, value)})
    assert config[key] == (tuple(value) if spec.kind == "floats" else value)


# One value just outside each key's domain, at the bound where there is one.
EDGE_CASES = [
    ("welfare", "seed", str(2**63)),
    ("welfare", "grid_points", "0"),
    ("welfare", "theta1", "0"),
    ("welfare", "cost", "0"),
    ("welfare", "ratio_a", "1"),
    ("welfare", "ratio_b", "1"),
    ("welfare", "severity_a", "medium"),
    ("welfare", "severity_b", "medium"),
    ("evalue_growth", "seed", str(-(2**63) - 1)),
    ("evalue_growth", "theta1", "4503599627370496"),
    ("evalue_growth", "n_max", "0"),
    ("evalue_growth", "reps", "1"),
    ("evalue_growth", "paths_out", "-1"),
    ("fda_audit", "seed", str(2**63)),
    ("fda_audit", "cost", "500"),
    ("fda_audit", "profits", "1e9,0"),
    ("fda_audit", "band", "-5e-324"),
    ("multiround", "seed", str(-(2**63) - 1)),
    ("multiround", "horizon", "0"),
    ("multiround", "cost", "0"),
    ("multiround", "levels", "0"),
    ("multiround", "caps", "1,0"),
    ("multiround", "theta_grid", "1,1"),
    ("multiround", "theta_star", "0"),
    ("multiround", "reps", "1"),
    ("best_response", "seed", str(2**63)),
    ("best_response", "cap", "0"),
    ("best_response", "cost_ratios", "0.5,1"),
    ("best_response", "theta_grid", "0.5,0"),
]


def test_every_domain_has_an_edge_case():
    assert sorted((e, k) for e, k, _ in EDGE_CASES) == sorted(DOMAIN_KEYS)


# The doubles hardest to spell: subnormals, both zeros and the largest
# magnitudes, beside any finite double.
EXACT_FLOATS = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(**FINITE),
)
VALUES_BY_KIND = {
    "int": st.integers(),
    "float": EXACT_FLOATS,
    "floats": st.lists(EXACT_FLOATS, min_size=1, max_size=4).map(tuple),
    "str": st.sampled_from(sorted({c for e, k in ALL_KEYS for c in SCHEMAS[e][k].choices})),
}


@pytest.mark.parametrize("kind", sorted(_PARSERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_manifest_spelling_reads_back_exactly(kind, data):
    # the manifest writer is the inverse of the parsers, to the bit and sign
    value = data.draw(VALUES_BY_KIND[kind])
    key, text = parse_assignment(f"key = {_format_value(value)}", "manifest")
    parsed = _PARSERS[kind](text)
    assert key == "key" and type(parsed) is type(value) and repr(parsed) == repr(value)


@pytest.mark.parametrize(
    "experiment, key, value",
    EDGE_CASES
    + [
        # the library's own checks must also fire before the directory exists
        ("fda_audit", "band", "-1"),
        ("fda_audit", "cost", "-5"),
        ("fda_audit", "cost", "400"),
        # a horizon too large to convert to a double
        pytest.param("multiround", "horizon", str(10**400), id="multiround-horizon-10**400"),
    ],
)
def test_cli_rejects_before_writing(tmp_path, capsys, experiment, key, value):
    out = tmp_path / "out"
    code = main([experiment.replace("_", "-"), "--out", str(out), "--param", f"{key}={value}"])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "params",
    [
        # in-domain keys whose product, the cap, rounds down to the cost
        ["cost=5e-324", "ratio_a=1.1"],
        # ... or overflows
        ["cost=1e308"],
    ],
)
def test_cli_rejects_welfare_cap_before_writing(tmp_path, capsys, params):
    out = tmp_path / "out"
    argv = ["welfare", "--out", str(out)]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad value for 'cost' and 'ratio_a'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "params",
    [
        # in-domain keys whose product, the cost, underflows to 0
        ["cap=5e-324"],
        # ... or rounds up to the cap
        ["cap=5e-324", "cost_ratios=0.6,0.9999999999999999", "theta_grid=1"],
        ["cap=1e-310", "cost_ratios=0.9999999999999999"],
    ],
)
def test_cli_rejects_best_response_cost_out_of_range_before_writing(tmp_path, capsys, params):
    out = tmp_path / "out"
    argv = ["best-response", "--out", str(out)]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad value for 'cap' and 'cost_ratios'" in err
    assert not out.exists()


# theta1**2 overflows at 1e200 and at 1e154 the statistics come out inf or
# NaN; both lie far outside theta1's domain
@pytest.mark.parametrize("theta1", ["1e154", "1e200"])
def test_cli_rejects_evalue_overflow_before_writing(tmp_path, capsys, theta1):
    out = tmp_path / "out"
    argv = ["evalue-growth", "--out", str(out), "--reps", "20", "--param", f"theta1={theta1}"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad value for 'theta1'" in err
    assert "Traceback" not in err
    assert not out.exists()


# The smallest cap over levels must be a normal double: the DP loses digits on
# subnormal level values, while a tiny normal spacing still runs.
@pytest.mark.parametrize("caps, code", [("1e-315", EXIT_CONFIG), ("1e-300", 0)])
def test_multiround_level_spacing_must_be_normal(tmp_path, capsys, caps, code):
    out = tmp_path / "out"
    argv = ["multiround", "--out", str(out), "--reps", "10", "--param", f"caps={caps}",
            "--param", f"cost={float(caps) / 10!r}", "--param", "horizon=2",
            "--param", "levels=4"]
    assert main(argv) == code
    if code == EXIT_CONFIG:
        assert "bad values for 'caps' and 'levels'" in capsys.readouterr().err
    assert out.exists() == (code == 0)


# Size keys drawn small, so that a search over every key stays fast.
SMALL = {"grid_points": 5, "n_max": 10, "reps": 10, "paths_out": 3, "horizon": 3, "levels": 6}


def small_inside(key: str, spec: Key) -> st.SearchStrategy:
    """In-domain values with the size keys bounded and lists of at most two."""
    if key in SMALL:
        return st.integers(spec.at_least, SMALL[key])
    if spec.kind == "floats":
        return st.lists(inside_scalar(spec), min_size=1, max_size=2)
    return inside_scalar(spec)


@st.composite
def in_domain_run(draw, experiment: str) -> dict[str, str]:
    """Each key at its default or at a value drawn from its domain; size keys
    are always drawn, since some defaults are large."""
    overrides = {}
    for key, spec in SCHEMAS[experiment].items():
        if key in SMALL or draw(st.booleans()):
            overrides[key] = as_text(spec, draw(small_inside(key, spec)))
    return overrides


@pytest.mark.parametrize("experiment", SCHEMAS)
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_in_domain_run_succeeds_or_names_a_key(experiment, data):
    # Either the run succeeds, writing each file once, and its manifest replays
    # it byte for byte, or it exits 2 before writing anything, with a message
    # that quotes one of the experiment's keys. An exception, and a
    # RuntimeWarning (an error under this suite's filter), both fail.
    overrides = data.draw(in_domain_run(experiment))
    argv = [experiment.replace("_", "-")]
    for key, value in overrides.items():
        argv += ["--param", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        if code == EXIT_CONFIG:
            assert any(repr(key) in stderr.getvalue() for key in SCHEMAS[experiment])
            assert not out.exists()
        else:
            assert code == 0
            # and every number written is finite
            for path in out.glob("*.csv"):
                for field in path.read_text().replace("\n", ",").split(","):
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, field)
            for path in out.glob("*.svg"):
                text = path.read_text()
                assert "nan" not in text and "inf" not in text, path.name
            wrote = [line for line in stdout.getvalue().splitlines() if line.startswith("wrote ")]
            assert len(set(wrote)) == len(wrote)
            replay = Path(tmp) / "replay"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([argv[0], "--config", str(out / "manifest.txt"), "--out", str(replay)])
            assert code == 0
            written = {path.name: path.read_bytes() for path in out.iterdir()}
            assert {path.name: path.read_bytes() for path in replay.iterdir()} == written
