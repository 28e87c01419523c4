"""Golden digests of what the command line prints.

Each case writes one instance file, runs `cli.main` in-process and compares
the sha256 of its stdout with a digest recorded from the token-by-token
loader and the row-by-row printer. The corpus covers integer, 40-digit,
fraction, decimal and mixed weights, duplicates, a glyph line, blank lines
and the tiny-letter path, under `solve --emit tsv`, `solve` (the table) and
`exact`. A change that must print the same bytes keeps these digests as
they are. The main-path `solve` digests were recorded again when the guess
search gained a first pass over every other live level, which changed the
guesses line of each and no other line.
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
        "bdc791d9f0a9fe9a3a30d4cadf842392e28044ae0a879aa8a802562ff98034f8",
    ),
    (
        "ints",
        "solve --epsilon 1",
        "fa3f25c6be3f5c8ce7ca61b2303c9587c89c97f82a9ef0212b8754a2d40d0d00",
    ),
    (
        "ints_dup",
        "solve --epsilon 1/2 --emit tsv",
        "06f808484a4520ab77e564320880fd0ee5276e9bd6cbb4c65a39407f81d5a7f1",
    ),
    (
        "ints_dup",
        "solve --epsilon 1/2",
        "5b0df5625499518ff9f790128440b3acfc1bbb8c3752066917062dd73afc15cc",
    ),
    ("ints_dup", "exact", "eb42f2c3bd28681d1179c884ed8def9c46bb7a5bf476a14d85f205b2316b21df"),
    (
        "huge",
        "solve --epsilon 1/2 --emit tsv",
        "e896b3b6f72ccac6e6df5c239fd6eaeed4716e180c34e1451afa132be8d8def3",
    ),
    (
        "huge",
        "solve --epsilon 1/2",
        "e7bea16b5c9804b3b32591f9f3064625457ca40ecf9606399c9b7bffb8774d1f",
    ),
    ("huge", "exact", "9995a6c75b8f0711c4abf1c4b771e51dd5fca41a09ba3b6b5d61dd1da2af2919"),
    (
        "fractions",
        "solve --epsilon 1/2 --emit tsv",
        "11627642b7b5582d0519e4879252a9770d0ae194769b4438aa1f8b4ff2211274",
    ),
    (
        "fractions",
        "solve --epsilon 1/2",
        "7ef04487a5032ee00bb26992784af07c0960c6c083ab92ab7df04370c5bceb96",
    ),
    ("fractions", "exact", "5708ae598408b9e1feda15dec44407f1e485c346f27bae7be303fafbd867151a"),
    (
        "decimals",
        "solve --epsilon 1/3 --emit tsv",
        "4bd0cdfc0ae44bf0e7e36d9d7c2bebe3df81a0132f52462a754862834e0fe8f6",
    ),
    (
        "decimals",
        "solve --epsilon 1/3",
        "b03b462d61af63fa58f99bceff4bb1a507304fd253b3f4be912ac0f0603042c8",
    ),
    ("decimals", "exact", "9f0ab6f377f95555ed4d65cc0af223756e1d6f32b45cfe79b4e464c3ffd5d15b"),
    (
        "mixed",
        "solve --epsilon 1/2 --emit tsv",
        "68ec36bbde63b5b92bebe1c76919896e4eb94d02a4c5749bc216cba0a29bd3c8",
    ),
    (
        "mixed",
        "solve --epsilon 1/2",
        "daef17c8ad6648731e349330683dce1981d1c207f247727bbb3f8e49e17016a9",
    ),
    ("mixed", "exact", "17d8a69f213b4ef22f0d826fd08056f0b4470fe662cd920382e75d7f5526a75d"),
    (
        "glyphs",
        "solve --epsilon 1/4 --emit tsv",
        "0f6b2d9e2dec1b8f3319e431811abd4d284bf0507a704b5659c30f205c684f0a",
    ),
    (
        "glyphs",
        "solve --epsilon 1/4",
        "a81cfc36df4f01e22f598264d2de195292d60e2d0546e9e092e7fdfb480c0c2c",
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
