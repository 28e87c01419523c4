"""The command-line loader against the token-by-token reference loader.

`cli.load_instance` parses a line of plain ASCII digits in one pass and
builds an all-int instance without Fractions. On seeded instance files that
mix every number form the loader accepts, it must read the same instance as
`helpers.load_reference`, and on files with a bad token it must raise the
same error.
"""

import random
from fractions import Fraction

import pytest

from helpers import load_reference
from lettercost.cli import ParseError, load_instance

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def number_token(rng, form):
    """One positive number written in the given form."""
    a = rng.randint(1, 10**6)
    if form == "int":
        return str(a)
    if form == "huge":
        return str(rng.randrange(10**39, 10**40))
    if form == "zeros":
        return "0" * rng.randint(1, 3) + str(a)
    if form == "plus":
        return "+" + str(a)
    if form == "underscore":
        return "%d_%03d" % (rng.randint(1, 999), rng.randint(0, 999))
    if form == "arabic":
        return str(a).translate(ARABIC_INDIC)
    if form == "fraction":
        return "%d/%d" % (a, rng.randint(1, 97))
    assert form == "decimal"
    return "%d.%0*d" % (rng.randint(0, 999), rng.randint(1, 4), rng.randint(1, 9999))


FORMS = ["int", "huge", "zeros", "plus", "underscore", "arabic", "fraction", "decimal"]


def weight_line(rng, n):
    """n weight tokens: plain ints only (the one-pass line), or a mix of
    forms; some are repeated and the line is shuffled."""
    forms = ["int"] if rng.random() < 0.4 else rng.sample(FORMS, rng.randint(1, len(FORMS)))
    tokens = [number_token(rng, rng.choice(forms)) for _ in range(n)]
    tokens += rng.choices(tokens, k=rng.randint(0, n))  # duplicate weights
    rng.shuffle(tokens)
    return tokens


def blank(rng):
    """Zero or more blank lines, some holding only spaces or tabs."""
    return "".join(rng.choice(["\n", " \n", "\t \n"]) for _ in range(rng.choice([0, 0, 1, 2])))


def instance_text(rng, weights):
    r = rng.randint(2, 5)
    costs = [rng.choice(["1", "2", "3", "1/2", "2.5", "3/4"]) for _ in range(r)]
    text = blank(rng) + " ".join(costs) + "\n" + blank(rng)
    text += rng.choice([" ", "  ", "\t"]).join(weights) + "\n" + blank(rng)
    if rng.random() < 0.3:
        text += " ".join(rng.sample(".-*+=o", r)) + "\n" + blank(rng)
    return text


def loaded_fields(path):
    loaded = load_instance(str(path), Fraction(1, 2))
    instance = loaded.instance
    return (
        instance.weights_int,
        instance.scale,
        instance.weight_total,
        loaded.order,
        loaded.glyphs,
        loaded.raw_weights,
    )


@pytest.mark.parametrize("seed", range(40))
def test_loader_matches_reference(tmp_path, seed):
    rng = random.Random("loader:%d" % seed)
    text = instance_text(rng, weight_line(rng, rng.randint(1, 60)))
    path = tmp_path / "instance.txt"
    path.write_text(text)
    got, want = loaded_fields(path), load_reference(text)
    assert got == want
    # equal values of one type: ints stay ints, every other form is a Fraction
    assert list(map(type, got[-1])) == list(map(type, want[-1]))


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize("bad", ["0", "-3", "x", "1/0"])
def test_loader_errors_match_reference(tmp_path, seed, bad):
    rng = random.Random("loader-error:%s:%d" % (bad, seed))
    weights = weight_line(rng, rng.randint(1, 20))
    weights.insert(rng.randint(0, len(weights)), bad)
    text = instance_text(rng, weights)
    path = tmp_path / "instance.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as want:
        load_reference(text)
    with pytest.raises(ParseError) as got:
        load_instance(str(path), Fraction(1, 2))
    assert str(got.value) == str(want.value)
