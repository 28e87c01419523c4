"""Golden digests of what the command line prints.

Each case writes one instance file, runs `cli.main` in-process and compares
the sha256 of its stdout with a digest recorded from the token-by-token
loader and the row-by-row printer. The corpus covers integer, 40-digit,
fraction, decimal and mixed weights, duplicates, a glyph line, blank lines
and the tiny-letter path, under `solve --emit tsv`, `solve` (the table) and
`exact`. A change that must print the same bytes keeps these digests as
they are. The main-path `solve` digests were recorded again when the guess
search gained a first pass over every other live level, and again when that
pass gave way to one over the groups merged in pairs; each time only the
guesses line of each changed, and no other line. The two `tiny` digests were
recorded again when the tiny path's run-length ladder came to end at its
first run length >= n: the guesses line went from 23 to 11, and stdout
without that line hashes as before.

The corpus runs once more in a `python -O` interpreter, where `assert`
statements are stripped, so no printed result depends on one.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import lettercost
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
        "792ce2fc50e8d2d1278d794c5f28c551a081dc151c5df1b9034a22157d7967ad",
    ),
    (
        "ints",
        "solve --epsilon 1",
        "34703fa67df47ca9e41d8f29e85f81e20f7c5e9e6a288ac715c6e65503413d1a",
    ),
    (
        "ints_dup",
        "solve --epsilon 1/2 --emit tsv",
        "3087815358596005d9a07f71a8e724c630fb60a22a502688bf686d77b0c2deed",
    ),
    (
        "ints_dup",
        "solve --epsilon 1/2",
        "a5fc981f7219e4ac5b4c0999f175d017de6eff637167a4687288cc325b0233bf",
    ),
    ("ints_dup", "exact", "eb42f2c3bd28681d1179c884ed8def9c46bb7a5bf476a14d85f205b2316b21df"),
    (
        "huge",
        "solve --epsilon 1/2 --emit tsv",
        "48602508852f25388606b1eeb956a3118f00b7841892924767cf1c80203c00ca",
    ),
    (
        "huge",
        "solve --epsilon 1/2",
        "3c9ffcef4099bc5c78c18f8566d34113baae4be67f6efdbb1bfd6ff036d6e9b6",
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
        "0675e232d2e20f21dc9a776f389d071c652eca9b529252222a8208b6f4764c17",
    ),
    (
        "decimals",
        "solve --epsilon 1/3",
        "97f73789600a44a3fc58f9cb69d32cd94ef386b231cdb9a61ff30393f86d96bf",
    ),
    ("decimals", "exact", "9f0ab6f377f95555ed4d65cc0af223756e1d6f32b45cfe79b4e464c3ffd5d15b"),
    (
        "mixed",
        "solve --epsilon 1/2 --emit tsv",
        "d8a521a79816487c278eb5d18addd688c25c267903d1e60c25379043ee887a1b",
    ),
    (
        "mixed",
        "solve --epsilon 1/2",
        "9250fe26f9ced0918d92de7835c08bf36844fdcabf3237ce472f7b58e43d2f9e",
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
        "d510e8d62fc1e52b9026a11b1a6aa8ecb6b02504cb976a0013eefe49e8c62c2f",
    ),
    (
        "tiny",
        "solve --epsilon 1/2",
        "1e7cfa1947a1c05abf4a57d761c7c5ec0e00dc14a8b8719ccf9e7d21375a7ac0",
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


# reads a JSON list of command lines on stdin; prints sys.flags.optimize,
# then each command's exit code and stdout digest
OPTIMIZED_RUN = """
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from lettercost.cli import main
print(sys.flags.optimize)
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_golden_digests_without_asserts(tmp_path):
    for name, text in FILES.items():
        (tmp_path / (name + ".txt")).write_text(text)
    argvs = [
        [command.split()[0], str(tmp_path / (name + ".txt")), *command.split()[1:]]
        for name, command, _ in GOLDEN
    ]
    src = str(Path(lettercost.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    optimize, *lines = run.stdout.splitlines()
    assert optimize == "1"
    assert lines == ["0 " + digest for _, _, digest in GOLDEN]
