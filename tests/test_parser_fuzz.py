"""Hostile input for the two text parsers.  Whatever the text, a parser
returns a value or raises ValueError, never another exception, so the
CLI can turn every malformed file into an `error:` line.  The parsers are
the only gate: `Multigraph` trusts its callers, so every value a parser
returns must also be well formed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab.harness import parse_config_text
from perclab.pairing import (
    DegreeSequence,
    format_multigraph,
    parse_multigraph,
    project,
    sample_configuration,
)

# small numbers reach real vertices and keys; big ones overflow int64
NUMBERS = st.one_of(st.integers(-3, 12), st.integers(-(2**70), 2**70)).map(str)
WORDS = st.sampled_from(
    ["#", "=", "n", "d", "alpha", "p", "eta", "trials", "base_seed",
     "mode", "exhaustive_expansion", "true", "no", "simple", "0.5", "-0.5", "nan", "inf", "x"]
)
TOKENS = st.one_of(NUMBERS, NUMBERS, WORDS)
RANDOM_TEXT = st.one_of(
    st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=12).map("\n".join),
    st.text(max_size=80),
)


@st.composite
def near(draw, valid: str) -> str:
    """valid text after one to three line edits: drop a line, repeat it,
    append a token to it or replace one of its tokens."""
    rows = [ln.split() for ln in valid.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["drop", "repeat", "append", "replace"]))
        if action == "drop":
            del rows[i]
        elif action == "repeat":
            rows.insert(i, list(rows[i]))
        elif action == "append" or not rows[i]:
            rows[i].append(draw(TOKENS))
        else:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(TOKENS)
    return "\n".join(" ".join(r) for r in rows) + "\n"


CONFIGURATION = sample_configuration(DegreeSequence(np.array([3, 1, 2, 2, 0])), seed=0)
VALID = {
    parse_multigraph: format_multigraph(project(CONFIGURATION)),
    parse_config_text: "n = 40\nd = 3\nalpha = 0.5\neta = 0.25\ntrials = 2\nmode = simple\n",
}


def assert_endpoints_in_range(g):
    assert g.edges.size == 0 or (g.edges.min() >= 0 and g.edges.max() < g.n)


# what each parser's result must satisfy
WELL_FORMED = {
    parse_multigraph: assert_endpoints_in_range,
    parse_config_text: lambda cfg: None,
}


@pytest.mark.parametrize("parse", VALID, ids=lambda f: f.__name__)
def test_valid_text_parses(parse):
    WELL_FORMED[parse](parse(VALID[parse]))


@pytest.mark.parametrize("parse", VALID, ids=lambda f: f.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_returns_or_raises_value_error(parse, data):
    text = data.draw(st.one_of(RANDOM_TEXT, near(VALID[parse])), label="text")
    try:
        value = parse(text)
    except ValueError:
        return
    WELL_FORMED[parse](value)
