"""The config boundary: every key's declared domain is what resolve_config
accepts, and a rejected value exits 2 before anything is written."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from evcontracts.cli import EXIT_CONFIG, main
from evcontracts.experiments import SCHEMAS, ConfigError, Key, resolve_config

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
        return st.integers(min_value=spec.at_least)
    return st.floats(
        min_value=spec.above if spec.above is not None else spec.at_least,
        max_value=spec.below,
        exclude_min=spec.above is not None,
        exclude_max=spec.below is not None,
        **FINITE,
    )


def inside(spec: Key) -> st.SearchStrategy:
    if spec.kind == "floats":
        return st.lists(inside_scalar(spec), min_size=1, max_size=4, unique=spec.unique)
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
        options += [st.just(spec.below), st.floats(min_value=spec.below, **FINITE)]
    return st.one_of(options)


@st.composite
def outside(draw, spec: Key):
    if spec.choices:
        return draw(st.text().filter(lambda s: s not in spec.choices))
    if spec.kind != "floats":
        return draw(outside_scalar(spec))
    faults = ["empty"] + ["repeat"] * spec.unique + ["element"] * has_bounds(spec)
    fault = draw(st.sampled_from(faults))
    if fault == "empty":
        return []
    values = draw(inside(spec))
    if fault == "repeat":
        return values + [values[0]]
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
    ("welfare", "grid_points", "0"),
    ("welfare", "theta1", "0"),
    ("welfare", "cost", "0"),
    ("welfare", "ratio_a", "1"),
    ("welfare", "ratio_b", "1"),
    ("welfare", "severity_a", "medium"),
    ("welfare", "severity_b", "medium"),
    ("evalue_growth", "theta1", "4503599627370496"),
    ("evalue_growth", "n_max", "0"),
    ("evalue_growth", "reps", "1"),
    ("evalue_growth", "paths_out", "-1"),
    ("fda_audit", "cost", "0"),
    ("fda_audit", "profits", "1e9,0"),
    ("fda_audit", "band", "-5e-324"),
    ("multiround", "horizon", "0"),
    ("multiround", "cost", "0"),
    ("multiround", "levels", "0"),
    ("multiround", "caps", "1,0"),
    ("multiround", "theta_grid", "1,1"),
    ("multiround", "theta_star", "0"),
    ("multiround", "reps", "1"),
    ("best_response", "cap", "0"),
    ("best_response", "cost_ratios", "0.5,1"),
    ("best_response", "theta_grid", "0.5,0"),
]


def test_every_domain_has_an_edge_case():
    assert sorted((e, k) for e, k, _ in EDGE_CASES) == sorted(DOMAIN_KEYS)


@pytest.mark.parametrize(
    "experiment, key, value",
    EDGE_CASES
    + [
        # the library's own checks must also fire before the directory exists
        ("fda_audit", "band", "-1"),
        ("fda_audit", "cost", "-5"),
        ("fda_audit", "cost", "400"),
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


def test_cli_rejects_best_response_cost_underflow_before_writing(tmp_path, capsys):
    # in-domain keys whose product, the cost, underflows to 0
    out = tmp_path / "out"
    argv = ["best-response", "--out", str(out), "--param", "cap=5e-324"]
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
