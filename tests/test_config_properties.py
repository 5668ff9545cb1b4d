"""Property tests of the run-config parser: round trip and corruption."""
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from revreact.cli import CONFIG_KEYS, RunConfig, parse_config, serialize_config
from revreact.errors import ConfigError

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@st.composite
def run_configs(draw):
    dim = draw(st.integers(1, 3))
    d_a = draw(positive)
    d_b, d_c = draw(st.sampled_from([
        (draw(positive), draw(positive)), (0.0, draw(positive)), (draw(positive), 0.0),
    ]))
    init = draw(st.one_of(
        st.tuples(st.just("uniform"), positive, positive, positive),
        st.tuples(st.just("cosine_bump"),
                  st.floats(min_value=1e-6, max_value=1 - 1e-6)),
        st.tuples(st.just("random_positive"), positive,
                  st.floats(min_value=0.0, max_value=1e3)),
    ))
    dt = draw(st.floats(min_value=1e-6, max_value=1.0))
    record_every = draw(st.integers(1, 1000))
    # t_end spans a whole number of record intervals and more than one step
    intervals = draw(st.integers(2 if record_every == 1 else 1, 1000))
    return RunConfig(
        dim=dim,
        cells=tuple(draw(st.lists(st.integers(1, 512), min_size=dim, max_size=dim))),
        lengths=tuple(draw(st.lists(positive, min_size=dim, max_size=dim))),
        d_a=d_a, d_b=d_b, d_c=d_c,
        init=init,
        dt=dt,
        t_end=intervals * record_every * dt,
        record_every=record_every,
        out_dir=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
        seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=300, deadline=None)
@given(run_configs())
def test_serialize_parse_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


#: values that no key accepts (out_dir takes any text and is not corrupted by value)
BAD_VALUES = ("", "nan", "inf", "-inf", "-1", "x", "1e400", "1 2 3 4", "0x10")


def _corruptions(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    key, value = lines[i].split("=", 1)
    kind = draw(st.sampled_from(["drop", "duplicate", "rename", "no_equals", "value"]))
    if kind == "value" and key == "out_dir":
        kind = "drop"
    if kind == "drop":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    if kind == "rename":
        new_key = draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12))
        if new_key in CONFIG_KEYS:
            new_key += "_x"
        return lines[:i] + [f"{new_key}={value}"] + lines[i + 1:]
    if kind == "no_equals":
        return lines[:i] + [lines[i].replace("=", " ")] + lines[i + 1:]
    return lines[:i] + [f"{key}={draw(st.sampled_from(BAD_VALUES))}"] + lines[i + 1:]


@settings(max_examples=500, deadline=None)
@given(run_configs(), st.data())
def test_single_line_corruption_raises_config_error(cfg, data):
    lines = serialize_config(cfg).splitlines()
    corrupted = _corruptions(data.draw, lines)
    with pytest.raises(ConfigError):
        parse_config("\n".join(corrupted) + "\n")


#: a valid config, the base of the explicit examples below
BASE = RunConfig(dim=1, cells=(8,), lengths=(1.0,), d_a=1.0, d_b=1.0, d_c=1.0,
                 init=("uniform", 1.0, 1.0, 1.0), dt=0.125, t_end=1.0, record_every=4,
                 out_dir="out", seed=0)
INIT_LINE = CONFIG_KEYS.index("init")


@settings(max_examples=500, deadline=None)
@given(
    run_configs(),
    st.integers(0, len(CONFIG_KEYS) - 1),
    st.one_of(
        st.text(max_size=30).filter(lambda v: "\n" not in v and "\r" not in v),
        st.lists(st.sampled_from(["1", "-1", "0", "1e308", "1e-308", "nan", "inf", "1.5",
                                  "uniform", "cosine_bump", "random_positive"]),
                 max_size=5).map(" ".join),
    ),
)
@example(BASE, INIT_LINE, "uniform 1 1 nan")
@example(BASE, INIT_LINE, "uniform inf 1 1")
@example(BASE, INIT_LINE, "random_positive nan 1")
@example(BASE, INIT_LINE, "random_positive 1 inf")
@example(BASE, INIT_LINE, "random_positive 1e308 1e308")
def test_arbitrary_line_never_escapes_as_another_error(cfg, i, value):
    lines = serialize_config(cfg).splitlines()
    key = lines[i].split("=", 1)[0]
    lines[i] = f"{key}={value}"
    try:
        parsed = parse_config("\n".join(lines) + "\n")
    except ConfigError:
        return
    assert isinstance(parsed, RunConfig)
    assert all(math.isfinite(x)
               for x in (parsed.dt, parsed.t_end) + parsed.lengths + parsed.init[1:])
    if parsed.init[0] == "random_positive":
        assert math.isfinite(parsed.init[1] + parsed.init[2])
