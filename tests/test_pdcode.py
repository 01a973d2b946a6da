"""PD text format: round trips, error reporting, genus detection."""

import re
from glob import glob
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.diagram import (
    close_numerator,
    close_with,
    emit_pd,
    linking_matrix,
    parse_pd,
    rational_tangle_diagram,
    trivial_tangle,
)
from tanglekit.errors import NonPlanarCode, PDSyntaxError, TangleError
from tanglekit.experiments import pjh_tangle
from tanglekit.rational import TangleFraction, reduce


class TestRoundTrip:
    def test_trivial(self):
        text = emit_pd(trivial_tangle())
        assert emit_pd(parse_pd(text)) == text

    def test_reference_fixture(self):
        with open("tests/fixtures/pjh.pd", encoding="utf-8") as fh:
            text = fh.read()
        d = parse_pd(text)
        assert d.n == 6 and d.k == 6
        assert emit_pd(d) == text
        assert d.canonical_code() == pjh_tangle().canonical_code()

    def test_closed_link(self):
        d = close_numerator(rational_tangle_diagram(reduce(5, 2)))
        text = emit_pd(d)
        d2 = parse_pd(text)
        assert emit_pd(d2) == text
        assert d2.canonical_code() == d.canonical_code()

    def test_random_diagrams(self):
        import random

        from draws import random_diagram

        rng = random.Random(77)
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 6), k=6)
            text = emit_pd(d)
            assert emit_pd(parse_pd(text)) == text

    def test_short_closed_components_keep_their_orientation(self):
        # the S line of a closed component with one or two arcs reads the
        # same both ways; the X lines must orient it, or lk signs flip
        fractions = {
            reduce(p, q)
            for p in range(-8, 9)
            for q in range(9)
            if (p, q) != (0, 0) and gcd(abs(p), q) == 1
        }
        fillers = (TangleFraction(0, 1), TangleFraction(1, 0), TangleFraction(1, 1))
        links = [
            d
            for f in fractions
            for filler in fillers
            for d in [close_with(rational_tangle_diagram(f), filler)]
            if len(d.components) == 2
        ]
        assert len(links) == 88
        hopf = close_with(rational_tangle_diagram(reduce(-2, 1)), TangleFraction(0, 1))
        assert linking_matrix(hopf) == {("u", "w"): 1}
        for d in links + [hopf]:
            text = emit_pd(d)
            back = parse_pd(text)
            assert linking_matrix(back) == linking_matrix(d)
            assert emit_pd(back) == text

    def test_comments_and_blanks_ignored(self):
        text = emit_pd(trivial_tangle())
        noisy = "# header comment\n\n" + text.replace("\n", "\n# noise\n", 1)
        assert parse_pd(noisy).canonical_code() == trivial_tangle().canonical_code()


class TestErrors:
    def test_genus_one_rejected(self):
        with open("tests/fixtures/genus1.pd", encoding="utf-8") as fh:
            with pytest.raises(NonPlanarCode):
                parse_pd(fh.read())

    def test_missing_header(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("X 1 2 3 4\n")

    def test_bad_crossing_line(self):
        with pytest.raises(PDSyntaxError) as err:
            parse_pd("tangle k=0 n=1\nX 1 2 3\nS a: 1\n")
        assert err.value.line == 2

    def test_arc_incidence_mismatch(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("tangle k=1 n=1\nX 1 2 1 2\nB 1 2\nS a: 1,2\n")

    def test_unknown_record(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("tangle k=0 n=0\nZ whatever\n")

    def test_boundary_count_mismatch(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("tangle k=2 n=0\nB 1 1\nS a: 1\n")

    def test_duplicate_string_label(self):
        with pytest.raises(PDSyntaxError) as err:
            parse_pd("tangle k=0 n=0\nS a: 1\nS a: 2\n")
        assert err.value.line == 3

    def test_extra_string_on_claimed_arc(self):
        text = emit_pd(trivial_tangle()) + "S extra: 1\n"
        with pytest.raises(PDSyntaxError) as err:
            parse_pd(text)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "s_line",
        [
            "S s12: 1,99,7",  # unknown arc inside the list
            "S s12: 1,2,3,4",  # stops short of the endpoint
            "S s12: 1,3,2,4,5",  # out of order
            "S s12: 1,2,3,4,5,5",  # repeated arc
            "S s12: 2,3,4,5",  # open strand listed from a crossing
            "S s12: 99,1,2,3,4,5",  # first arc unknown
        ],
    )
    def test_s_line_must_match_trace(self, s_line):
        with open("tests/fixtures/pjh.pd", encoding="utf-8") as fh:
            text = fh.read().replace("S s12: 1,2,3,4,5", s_line)
        with pytest.raises(PDSyntaxError) as err:
            parse_pd(text)
        assert err.value.line == 9

    def test_loop_s_line_must_match_trace(self):
        with open("tests/fixtures/figure_eight.pd", encoding="utf-8") as fh:
            text = fh.read().replace("1,2,3,4,5,6,7,8", "1,2,3,4,5,6,8,7")
        with pytest.raises(PDSyntaxError) as err:
            parse_pd(text)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("\nB ", "\nB 99 98 97 96 95 94\nB ", 9),
            ("tangle k=3 n=6\n", "tangle k=3 n=99\ntangle k=3 n=6\n", 2),
            ("n=6", "n=6 z=5", 1),
            ("n=6", "n=6 k=3", 1),
        ],
        ids=["second B line", "second header", "unknown header key", "repeated header key"],
    )
    def test_duplicate_or_unknown_record_rejected(self, old, new, line):
        with open("tests/fixtures/pjh.pd", encoding="utf-8") as fh:
            text = fh.read().replace(old, new, 1)
        with pytest.raises(PDSyntaxError) as err:
            parse_pd(text)
        assert err.value.line == line


def _tokens(path):
    """A PD text as word tokens and single separator characters."""
    with open(path, encoding="utf-8") as fh:
        return tuple(re.findall(r"\w+|\W", fh.read()))


FIXTURE_TOKENS = [_tokens(path) for path in sorted(glob("tests/fixtures/*.pd"))]
TOKEN_POOL = sorted({tok for tokens in FIXTURE_TOKENS for tok in tokens})


@st.composite
def mutated_pd_texts(draw):
    """A fixture PD text with one to four tokens replaced, deleted,
    duplicated or swapped."""
    tokens = list(draw(st.sampled_from(FIXTURE_TOKENS)))
    for _ in range(draw(st.integers(1, 4))):
        i, j = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
        op = draw(st.sampled_from(["replace", "delete", "duplicate", "swap"]))
        if op == "replace":
            tokens[i] = draw(st.sampled_from(TOKEN_POOL))
        elif op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


class TestMutatedTexts:
    @settings(max_examples=300, deadline=None)
    @given(mutated_pd_texts())
    def test_parse_validates_and_round_trips_or_raises(self, text):
        """`parse_pd` validates what it returns, so a mutated text either
        yields a diagram whose emitted text reads back to itself, or is
        refused with a TangleError."""
        try:
            d = parse_pd(text)
        except TangleError:
            return
        emitted = emit_pd(d)
        assert emit_pd(parse_pd(emitted)) == emitted
