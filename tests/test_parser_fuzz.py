"""Hostile input for the four text parsers.  Whatever the text, a parser
returns a value or raises ValueError, never another exception, so the
CLI can turn every malformed file into an `error:` line."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab.harness import parse_config_text
from perclab.pairing import (
    DegreeSequence,
    format_configuration,
    format_multigraph,
    parse_configuration,
    parse_multigraph,
    project,
    sample_configuration,
)
from perclab.percolation import apply_deletion, format_outcome, parse_outcome

# small numbers reach real buckets, points and keys; big ones overflow int64
NUMBERS = st.one_of(st.integers(-3, 12), st.integers(-(2**70), 2**70)).map(str)
WORDS = st.sampled_from(
    ["deleted:", "census:", "#", "=", "n", "d", "alpha", "p", "eta", "trials", "base_seed",
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
    parse_configuration: format_configuration(CONFIGURATION),
    parse_outcome: format_outcome(apply_deletion(CONFIGURATION, np.array([2]))),
    parse_multigraph: format_multigraph(project(CONFIGURATION)),
    parse_config_text: "n = 40\nd = 3\nalpha = 0.5\neta = 0.25\ntrials = 2\nmode = simple\n",
}


@pytest.mark.parametrize("parse", VALID, ids=lambda f: f.__name__)
def test_valid_text_parses(parse):
    parse(VALID[parse])


@pytest.mark.parametrize("parse", VALID, ids=lambda f: f.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_returns_or_raises_value_error(parse, data):
    text = data.draw(st.one_of(RANDOM_TEXT, near(VALID[parse])), label="text")
    try:
        parse(text)
    except ValueError:
        pass
