"""Golden digests of what the command line prints.

Each case writes one instance file, runs `cli.main` in-process and compares
the sha256 of its stdout with a digest recorded from the token-by-token
loader and the row-by-row printer. The corpus covers integer, 40-digit,
fraction, decimal and mixed weights, duplicates, a glyph line, blank lines
and the tiny-letter path, under `solve --emit tsv`, `solve` (the table) and
`exact`. A change that must print the same bytes keeps these digests as
they are.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lettercost.cli import main

ZIPF = " ".join(str(10**6 // ((i * 37) % 61 + 1)) for i in range(60))
HUGE = " ".join(str(10**39 + 7**i) for i in range(1, 9)) + " 123"
TINY = " ".join(str(10**5 // (i + 1) + i % 3) for i in range(64))

FILES = {
    "ints": "1 2\n" + ZIPF + "\n",
    "ints_dup": "1 1 2\n5 3 3 8 1 1 2\n",
    "huge": "1 3\n" + HUGE + "\n",
    "fractions": "1 3/2 2\n1/3 2/7 5/6 1 3/5 2/7\n",
    "decimals": "1 2.5\n0.5 1.25 3 0.125 2 2 1e1\n",
    "mixed": "2 1\n3 1/2 0.25 7 +7 1_0\n",
    "glyphs": "\n1 2\n\n5 3 2 2 1\n. -\n",
    "tiny": "1/4096 1 2\n" + TINY + "\n",
}

# (file, command line after the path, sha256 of stdout)
GOLDEN = [
    (
        "ints",
        "solve --epsilon 1 --emit tsv",
        "3507eae5e40176adbf8f3994da0268754835c5e0331ed9fa4e7eb82d0cbb6f22",
    ),
    (
        "ints",
        "solve --epsilon 1",
        "d2663a26d7ce2257b3780700482b62774a4f4b1f8fa42960791dc6d4549bd19f",
    ),
    (
        "ints_dup",
        "solve --epsilon 1/2 --emit tsv",
        "106a7a55d6ed98a450d3de864bff633496956975153a7c10d39b5d58326e8cc4",
    ),
    (
        "ints_dup",
        "solve --epsilon 1/2",
        "8fa04ce00a51bacae4b07249dde6a60621f1f5d7727ddb315bf08e54f185a36a",
    ),
    ("ints_dup", "exact", "eb42f2c3bd28681d1179c884ed8def9c46bb7a5bf476a14d85f205b2316b21df"),
    (
        "huge",
        "solve --epsilon 1/2 --emit tsv",
        "302c1d82f6244031e6c7df3a25862b0b0d1160eed4009246380fb06b5e5fd038",
    ),
    (
        "huge",
        "solve --epsilon 1/2",
        "785153aba65444ef90843cf0b477916a02becf297ea7bac6ad66293edac5aff2",
    ),
    ("huge", "exact", "9995a6c75b8f0711c4abf1c4b771e51dd5fca41a09ba3b6b5d61dd1da2af2919"),
    (
        "fractions",
        "solve --epsilon 1/2 --emit tsv",
        "ef3f131ff10a6bdddfaa8f801ee73c2c28262f95953e2d773eac07514cdccb4b",
    ),
    (
        "fractions",
        "solve --epsilon 1/2",
        "63ea60960123507c4c021b36d74a9472f5f8188e5861aadf8b0769a78c0960de",
    ),
    ("fractions", "exact", "5708ae598408b9e1feda15dec44407f1e485c346f27bae7be303fafbd867151a"),
    (
        "decimals",
        "solve --epsilon 1/3 --emit tsv",
        "09f5d71e10e8f4707535a788c93d5bf7c3af1eb5908dea820845f0c26f91b70a",
    ),
    (
        "decimals",
        "solve --epsilon 1/3",
        "0d1cc6fafc58aba570168a8dc700c9234e5d2ab7f68965d646176713b09737ba",
    ),
    ("decimals", "exact", "9f0ab6f377f95555ed4d65cc0af223756e1d6f32b45cfe79b4e464c3ffd5d15b"),
    (
        "mixed",
        "solve --epsilon 1/2 --emit tsv",
        "43475308ab280c3c8681aec2d7ed99894616efa141fa64e73157eb239dcfb2da",
    ),
    (
        "mixed",
        "solve --epsilon 1/2",
        "f4022590ba63a900b65075b3959960b2f3e1a2a1c2d8cd42abe254fb319f5e90",
    ),
    ("mixed", "exact", "17d8a69f213b4ef22f0d826fd08056f0b4470fe662cd920382e75d7f5526a75d"),
    (
        "glyphs",
        "solve --epsilon 1/4 --emit tsv",
        "0046a99360cc16741e075ed4b976ec43a39d96f0cc0159154a280152212ed705",
    ),
    (
        "glyphs",
        "solve --epsilon 1/4",
        "865d0283ab76c3da63ce30067835c2c9f79b4400e6836b9be64d3d4e3606afc5",
    ),
    ("glyphs", "exact", "dc9fcf3b6dcd74f5698fd86f0b35846f76540914433e7aadf9096bc551e10e12"),
    (
        "tiny",
        "solve --epsilon 1/2 --emit tsv",
        "10571186c4c0f0a443e0ddb55d30c2a30663dab93a8c6994e01cc8b11fc00499",
    ),
    (
        "tiny",
        "solve --epsilon 1/2",
        "7008b7b57560dde8d11e273dc3a2650d28767cf61ddc6b339d4911499b619f42",
    ),
]


def stdout_digest(path, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code == 0, err.getvalue()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize(
    "name, command, digest", GOLDEN, ids=["%s %s" % (name, command) for name, command, _ in GOLDEN]
)
def test_stdout_matches_golden_digest(tmp_path, name, command, digest):
    path = tmp_path / (name + ".txt")
    path.write_text(FILES[name])
    assert stdout_digest(path, command.split()) == digest
